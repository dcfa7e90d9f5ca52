"""Stored procedures: bound once, interpreted per call (T-SQL subset).

Procedures are the primary source of parameterized queries (paper §5.2):
a body compiled once keeps reusing its (possibly dynamic) plans across
calls with different arguments, which is precisely the scenario dynamic
plans exist for. Here "compiled once" is literal. :func:`bind_procedure`
runs when the ``EXEC`` naming the procedure is bound (once per schema
version, see :mod:`repro.engine.binding`) and turns the definition into a
:class:`BoundProcedure`: parameter order and compiled defaults, every
``IF``/``WHILE``/``SET``/``DECLARE``/``RETURN``/``PRINT`` expression
compiled to a closure, every embedded statement a
:class:`~repro.engine.binding.BoundStatement` carrying its own lock plan
and plan slot, and the body itself a tuple of *steps* — closures over
those parts. A call (:class:`ProcedureInterpreter`) builds only what
varies: the session the body runs under, the variable frame seeded from
the arguments, and the result it accumulates.

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
from repro.exec.expressions import Scalar, compile_scalar
from repro.sql import RESERVED_PREFIX, ast


class _ReturnSignal(Exception):
    """Internal control-flow signal for RETURN."""

    def __init__(self, value: Any):
        self.value = value


#: Safety bound on WHILE iterations (runaway-loop protection).
MAX_LOOP_ITERATIONS = 1_000_000

#: One body statement, compiled: runs against the call in progress.
Step = Callable[["ProcedureInterpreter"], None]


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
        self.params: Tuple[Tuple[str, Optional[Scalar]], ...] = ()
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
) -> Tuple[Tuple[str, Scalar], ...]:
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


def _run_block(steps: Tuple[Step, ...], call: "ProcedureInterpreter") -> None:
    for step in steps:
        step(call)


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

        def assign(call: "ProcedureInterpreter") -> None:
            call.frame[name] = call.evaluate(value) if value is not None else None

        return assign
    if isinstance(statement, ast.IfStatement):
        condition = compile_scalar(statement.condition)
        then_body = _compile_block(statement.then_body, bind_nested)
        else_body = _compile_block(statement.else_body, bind_nested)

        def run_if(call: "ProcedureInterpreter") -> None:
            _run_block(then_body if _truthy(call.evaluate(condition)) else else_body, call)

        return run_if
    if isinstance(statement, ast.WhileStatement):
        condition = compile_scalar(statement.condition)
        body = _compile_block(statement.body, bind_nested)

        def run_while(call: "ProcedureInterpreter") -> None:
            iterations = 0
            while _truthy(call.evaluate(condition)):
                iterations += 1
                if iterations > MAX_LOOP_ITERATIONS:
                    raise ExecutionError("WHILE loop exceeded iteration bound")
                _run_block(body, call)

        return run_while
    if isinstance(statement, ast.ReturnStatement):
        if statement.value is None:
            return _return_zero
        value = compile_scalar(statement.value)

        def run_return(call: "ProcedureInterpreter") -> None:
            raise _ReturnSignal(call.evaluate(value))

        return run_return
    if isinstance(statement, ast.PrintStatement):
        value = compile_scalar(statement.value)
        return lambda call: call.result.messages.append(str(call.evaluate(value)))
    nested = bind_nested(statement)
    if isinstance(statement, ast.Select):
        targets = tuple(item.target_parameter for item in statement.items)
        if any(targets):
            return lambda call: call.assign_from_select(nested, targets)
        return lambda call: call.run_select(nested)
    # Everything else (DML, EXEC, transactions) goes through the server's
    # dispatcher with the frame as parameter bindings.
    return lambda call: call.run_statement(nested)


def _return_zero(call: "ProcedureInterpreter") -> None:
    raise _ReturnSignal(0)


class ProcedureInterpreter:
    """One invocation of a :class:`BoundProcedure`.

    Holds what a call owns — session, frame, accumulated result — and
    nothing derivable from the definition: no expression is compiled and
    no statement classified here; the steps were built when the ``EXEC``
    was bound.
    """

    def __init__(self, server, database, session):
        self.server = server
        self.database = database
        self.session = session.frame()
        self.frame: Dict[str, Any] = {}
        self.result = Result()

    def call(
        self,
        procedure: BoundProcedure,
        arguments: Sequence[Tuple[str, Scalar]],
        outer_params: Dict[str, Any],
    ) -> Result:
        """Run ``procedure`` with ``arguments`` as :func:`bind_arguments`
        matched them, evaluated against the caller's parameters."""
        ctx = self._context(outer_params)
        for param, value in arguments:
            self.frame[param] = value((), ctx)
        result = self.result
        try:
            _run_block(procedure.body, self)
        except _ReturnSignal as signal:
            result.return_value = signal.value
        if result.resultsets:
            result.schema, result.rows = result.resultsets[-1]
        return result

    def _context(self, params: Dict[str, Any]) -> ExecutionContext:
        ctx = ExecutionContext(
            database=self.database,
            params=params,
            linked_servers=self.server.linked_servers,
            clock=self.server.clock,
        )
        ctx.subquery_executor = self._run_subquery
        return ctx

    def _run_subquery(self, select: ast.Select, params: Dict[str, Any]):
        return self.server.run_subquery(select, params, self.database, self.session)

    # -- what the steps call ------------------------------------------------

    def evaluate(self, value: Scalar) -> Any:
        """A compiled body expression over the current frame (a fresh
        context each time: subquery results must not outlive one
        evaluation of a ``WHILE`` condition)."""
        return value((), self._context(self.frame))

    def run_statement(self, nested) -> None:
        result = self.result
        inner = self.server.execute_bound(nested, self.frame, self.session, self.database)
        result.messages.extend(inner.messages)
        result.rowcount += inner.rowcount
        if inner.resultsets:
            result.resultsets.extend(inner.resultsets)
        elif inner.schema is not None:
            result.resultsets.append((inner.schema, inner.rows))

    def run_select(self, nested) -> None:
        inner = self.server.execute_bound(nested, self.frame, self.session, self.database)
        self.result.resultsets.append((inner.schema, inner.rows))

    def assign_from_select(self, nested, targets: Tuple[Optional[str], ...]) -> None:
        """``SELECT @x = expr``: T-SQL applies the select list to each
        row, so the final values come from the last row; with no rows the
        variables keep their prior values."""
        inner = self.server.execute_bound(nested, self.frame, self.session, self.database)
        frame = self.frame
        for row in inner.rows:
            for position, target in enumerate(targets):
                if target is not None:
                    frame[target] = row[position]
