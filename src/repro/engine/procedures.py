"""Stored procedures: bound once, run in the caller's context (T-SQL subset).

Procedures are the primary source of parameterized queries (paper §5.2):
a body compiled once keeps reusing its (possibly dynamic) plans across
calls with different arguments, which is precisely the scenario dynamic
plans exist for. Here "compiled once" is literal. :func:`bind_procedure`
runs when the ``EXEC`` naming the procedure is bound (once per schema
version, see :mod:`repro.engine.binding`) and turns the definition into a
:class:`BoundProcedure`: parameter order and compiled defaults, every
``IF``/``WHILE``/``SET``/``DECLARE``/``RETURN``/``PRINT`` expression
compiled to a kernel, every embedded statement a
:class:`~repro.engine.binding.BoundStatement` carrying its own lock plan
and plan slot, and the body itself a tuple of *steps* — closures over
those parts. A call (:func:`run_procedure`) builds only what varies: the
variable frame seeded from the arguments and the result it accumulates.
The body runs in the ``EXEC`` statement's execution context, with the
frame as its parameters: every expression is evaluated in it, and each
embedded statement runs in it through ``Server.run_in_call`` under its
own lock plan, as ``dbo`` in the caller's transaction (ownership
chaining).

Binding is also where a body and a call are checked: a variable the body
never declares, and an ``EXEC`` whose arguments do not match the
parameters (:func:`bind_arguments`), are a ``BindError`` at the first
``EXEC``. Objects keep T-SQL's deferred name resolution: a body may name
a table created later, and each statement resolves it when planned.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.catalog.objects import ProcedureDef
from repro.engine.results import Result
from repro.errors import BindError, ExecutionError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import Kernel, compile_scalar, evaluate
from repro.sql import RESERVED_PREFIX, ast


class _ReturnSignal(Exception):
    """Internal control-flow signal for RETURN."""

    def __init__(self, value: Any):
        self.value = value


#: Safety bound on WHILE iterations (runaway-loop protection).
MAX_LOOP_ITERATIONS = 1_000_000

#: One body statement, compiled: ``step(server, ctx, result)`` runs it in
#: the call's context (``ctx.params`` is the frame) into the call's result.
Step = Callable[[Any, ExecutionContext, Result], None]


class BoundProcedure:
    """A procedure definition bound against one schema version.

    Created empty and filled by :func:`bind_procedure`, so that a body
    calling its own procedure (directly or through a callee) refers to
    the object being filled instead of binding without end.
    """

    __slots__ = ("definition", "params", "body", "statements")

    def __init__(self, definition: ProcedureDef):
        self.definition = definition
        #: ``(name, compiled default or None)`` in declaration order.
        self.params: Tuple[Tuple[str, Optional[Kernel]], ...] = ()
        self.body: Tuple[Step, ...] = ()
        #: The body's embedded statements as bound, in source order (the
        #: steps hold the same objects; this is the view tools read).
        self.statements: Tuple[Any, ...] = ()


def bind_procedure(bound: BoundProcedure, bind_nested: Callable[[ast.Statement], Any]) -> None:
    """Compile ``bound.definition`` into parameters and steps.

    ``bind_nested`` binds one embedded statement (``SELECT``, DML,
    ``EXEC``, transaction control) for the same database and version.
    Raises :class:`BindError` for a variable the body never declares;
    the *objects* it names resolve when each statement is planned
    (T-SQL's deferred name resolution).
    """
    procedure = bound.definition
    _check_variables(procedure)
    bound.params = tuple(
        (param.name, compile_scalar(param.default) if param.default is not None else None)
        for param in procedure.params
    )
    statements = []

    def bind_and_keep(statement: ast.Statement) -> Any:
        nested = bind_nested(statement)
        statements.append(nested)
        return nested

    bound.body = _compile_block(procedure.body, bind_and_keep)
    bound.statements = tuple(statements)


def _check_variables(procedure: ProcedureDef) -> None:
    """T-SQL's "must declare the scalar variable": every ``@name`` the
    body reads is a parameter, a ``DECLARE``, a ``SET`` target or a
    ``SELECT @x =`` target somewhere in the body (one frame; order is not
    enforced). Lifted-literal markers are not variables."""
    declared = {param.name for param in procedure.params}
    pending = list(procedure.body)
    while pending:
        statement = pending.pop()
        if isinstance(statement, (ast.Declare, ast.SetVariable)):
            declared.add(statement.name)
        elif isinstance(statement, ast.Select):
            declared.update(item.target_parameter for item in statement.items if item.target_parameter)
        elif isinstance(statement, ast.IfStatement):
            pending += statement.then_body + statement.else_body
        elif isinstance(statement, ast.WhileStatement):
            pending += statement.body
    for statement in procedure.body:
        for name in ast.statement_parameters(statement):
            if name not in declared and not name.startswith(RESERVED_PREFIX):
                raise BindError(
                    f"procedure {procedure.name}: must declare the scalar variable @{name}"
                )


def call_with_every_parameter(procedure: ProcedureDef) -> ast.Execute:
    """``EXEC name @p = @p, …`` over every parameter: a call that binds
    whatever the procedure's arity (what analysis tools bind)."""
    return ast.Execute(
        (procedure.name,),
        tuple((param.name, ast.Parameter(param.name)) for param in procedure.params),
    )


def bind_arguments(
    procedure: BoundProcedure, arguments: Sequence[Tuple[Optional[str], ast.Expression]]
) -> Tuple[Tuple[str, Kernel], ...]:
    """An ``EXEC``'s arguments matched to ``procedure``'s parameters:
    ``(parameter, compiled value)`` for every parameter in declaration
    order — the caller's argument (named, else positional) or the default.
    Raises :class:`BindError` for an unknown name, one positional argument
    too many, or a required parameter left unsupplied."""
    name = procedure.definition.name
    params = procedure.params
    positional = [expression for arg_name, expression in arguments if arg_name is None]
    named = {arg_name: expression for arg_name, expression in arguments if arg_name is not None}
    if len(positional) > len(params):
        raise BindError(
            f"procedure {name} takes {len(params)} argument(s); "
            f"argument {len(params) + 1} has no parameter"
        )
    unknown = set(named).difference(param for param, _ in params)
    if unknown:
        raise BindError(f"procedure {name} has no parameter @{min(unknown)}")
    resolved = []
    for position, (param, default) in enumerate(params):
        if param in named:
            value = compile_scalar(named[param])
        elif position < len(positional):
            value = compile_scalar(positional[position])
        elif default is not None:
            value = default
        else:
            raise BindError(f"procedure {name} expects parameter @{param}, which was not supplied")
        resolved.append((param, value))
    return tuple(resolved)


def _compile_block(statements: Sequence[ast.Statement], bind_nested) -> Tuple[Step, ...]:
    return tuple(_compile_step(statement, bind_nested) for statement in statements)


def _run_block(steps: Tuple[Step, ...], server, ctx: ExecutionContext, result: Result) -> None:
    for step in steps:
        step(server, ctx, result)


def _evaluate(value: Kernel, ctx: ExecutionContext) -> Any:
    """A compiled body expression over the current frame (subquery
    results must not outlive one evaluation of a ``WHILE`` condition)."""
    ctx.forget_subqueries()
    return evaluate(value, ctx)


def _truthy(value: Any) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _compile_step(statement: ast.Statement, bind_nested) -> Step:
    """The dispatch on statement class, made once per binding."""
    if isinstance(statement, (ast.Declare, ast.SetVariable)):
        name = statement.name
        expression = (
            statement.initial if isinstance(statement, ast.Declare) else statement.value
        )
        value = compile_scalar(expression) if expression is not None else None

        def assign(server, ctx: ExecutionContext, result: Result) -> None:
            ctx.params[name] = _evaluate(value, ctx) if value is not None else None

        return assign
    if isinstance(statement, ast.IfStatement):
        condition = compile_scalar(statement.condition)
        then_body = _compile_block(statement.then_body, bind_nested)
        else_body = _compile_block(statement.else_body, bind_nested)

        def run_if(server, ctx: ExecutionContext, result: Result) -> None:
            branch = then_body if _truthy(_evaluate(condition, ctx)) else else_body
            _run_block(branch, server, ctx, result)

        return run_if
    if isinstance(statement, ast.WhileStatement):
        condition = compile_scalar(statement.condition)
        body = _compile_block(statement.body, bind_nested)

        def run_while(server, ctx: ExecutionContext, result: Result) -> None:
            iterations = 0
            while _truthy(_evaluate(condition, ctx)):
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise ExecutionError("WHILE loop exceeded iteration bound")
                _run_block(body, server, ctx, result)

        return run_while
    if isinstance(statement, ast.ReturnStatement):
        if statement.value is None:
            return _return_zero
        value = compile_scalar(statement.value)

        def run_return(server, ctx: ExecutionContext, result: Result) -> None:
            raise _ReturnSignal(_evaluate(value, ctx))

        return run_return
    if isinstance(statement, ast.PrintStatement):
        value = compile_scalar(statement.value)

        def run_print(server, ctx: ExecutionContext, result: Result) -> None:
            result.messages.append(str(_evaluate(value, ctx)))

        return run_print
    nested = bind_nested(statement)
    if isinstance(statement, ast.Select):
        targets = tuple(item.target_parameter for item in statement.items)
        if any(targets):

            def assign_from_select(server, ctx: ExecutionContext, result: Result) -> None:
                """``SELECT @x = expr``: T-SQL applies the select list to
                each row, so the final values come from the last row; with
                no rows the variables keep their prior values."""
                _, rows = server.run_in_call(nested, ctx, select=True)
                frame = ctx.params
                for row in rows:
                    for position, target in enumerate(targets):
                        if target is not None:
                            frame[target] = row[position]

            return assign_from_select

        def run_select(server, ctx: ExecutionContext, result: Result) -> None:
            result.resultsets.append(server.run_in_call(nested, ctx, select=True))

        return run_select

    # Everything else (DML, EXEC, transactions) goes through the server's
    # dispatcher with the frame as parameter bindings.
    def run_statement(server, ctx: ExecutionContext, result: Result) -> None:
        inner = server.run_in_call(nested, ctx)
        result.messages.extend(inner.messages)
        result.rowcount += inner.rowcount
        if inner.resultsets:
            result.resultsets.extend(inner.resultsets)
        elif inner.schema is not None:
            result.resultsets.append((inner.schema, inner.rows))

    return run_statement


def _return_zero(server, ctx: ExecutionContext, result: Result) -> None:
    raise _ReturnSignal(0)


def run_procedure(
    server,
    procedure: BoundProcedure,
    arguments: Sequence[Tuple[str, Kernel]],
    ctx: ExecutionContext,
) -> Result:
    """One call of ``procedure``, in the calling statement's context.

    ``arguments`` (as :func:`bind_arguments` matched them) are evaluated
    against the caller's parameters; their values are the frame, which
    stands in for ``ctx.params`` while the body runs. The body's steps
    were built when the ``EXEC`` was bound: its ``SELECT``s drain into
    the call's result, every other statement's result is merged into it.
    """
    frame: Dict[str, Any] = {}
    for param, value in arguments:
        frame[param] = evaluate(value, ctx)
    result = Result()
    caller_params = ctx.params
    ctx.params = frame
    try:
        _run_block(procedure.body, server, ctx, result)
    except _ReturnSignal as signal:
        result.return_value = signal.value
    finally:
        ctx.params = caller_params
    if result.resultsets:
        result.schema, result.rows = result.resultsets[-1]
    return result
