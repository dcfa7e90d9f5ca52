"""Binding: what a statement means under one schema version, derived once.

Nothing that is a function of *(statement, schema version)* is recomputed
per execution. :func:`bind_statement` derives all of it in one pass and
returns a :class:`BoundStatement`:

* the :class:`~repro.engine.locks.LockPlan` — from the one
  :func:`~repro.engine.locks.statement_lock_plan`, so the plan the
  concurrency analysis checks is the plan the dispatcher acquires;
* the objects the statement *names*, each with the permission it needs —
  one :func:`~repro.engine.locks.named_tables` walk feeds locks and
  permissions alike, and it descends into ``IN``/``EXISTS``/scalar
  subqueries, derived tables, ``INSERT … SELECT`` sources and DML
  predicates, so no named object escapes the check. Names are as written,
  before view expansion: a granted view over an ungranted table still
  works by ownership chaining;
* the dispatch key (``kind``) and the ``read_only`` bit;
* a slot for the :class:`~repro.optimizer.planner.PlannedStatement`,
  filled by ``Server.plan_select`` the first time the statement runs (for
  a local DML the slot holds its compiled runner instead);
* for a forwarded DML or ``EXEC``: the owning server and the formatted
  text of the rewritten statement (the text keys the link's shared
  prepared handle), and the compiled argument expressions;
* for a local ``EXEC``: the :class:`~repro.engine.procedures.BoundProcedure`
  — parameter order and defaults, control-flow expressions compiled,
  nested statements bound the same way — and the call's arguments matched
  to its parameters. An undeclared variable in the body, an unknown
  argument name, a positional argument too many or a missing required one
  raises :class:`~repro.errors.BindError` here, at the first ``EXEC``.

Deliberately *not* bound: whether the principal holds those permissions
(``GRANT`` does not bump the schema version, so the check runs live over
the bound operands), latch ownership, admission and deadline, and
anything a run creates (context, operators' state, results).

A bound statement lives inside an entry that already exists — the parse
cache's value, a prepared handle, the body of a bound procedure — and dies
with it; there is no cache of bindings. It records the version it was
bound under, and the dispatcher re-binds on the spot if the database has
moved on (DDL earlier in the same batch, or between the cache lookup and
the latch).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.engine.ddl import derive_schema
from repro.engine.locks import LockPlan, named_tables, statement_lock_plan
from repro.engine.procedures import BoundProcedure, bind_arguments, bind_procedure
from repro.errors import BindError, CatalogError
from repro.exec.expressions import Scalar, compile_scalar
from repro.sql import RESERVED_PREFIX, ast
from repro.sql.formatter import format_statement

_READ_ONLY = (ast.Select, ast.UnionAll, ast.Explain)
_DML_PERMISSION = {ast.Insert: "INSERT", ast.Update: "UPDATE", ast.Delete: "DELETE"}
_VARIABLE_STATEMENTS = (ast.Declare, ast.SetVariable, ast.PrintStatement)


class BoundStatement:
    """One statement bound against one database at one schema version."""

    __slots__ = (
        "statement", "kind", "version", "lock_plan", "objects", "read_only",
        "planned", "children", "scalar", "arguments", "procedure", "forward",
    )  # fmt: skip

    def __init__(self, statement: ast.Statement, version: int):
        self.statement = statement
        #: The statement's class: the key of the server's runner table.
        self.kind = type(statement)
        self.version = version
        self.lock_plan: Optional[LockPlan] = None
        #: ``(permission, object name)`` for every object the statement
        #: names; checked live for principals other than the owner.
        self.objects: Tuple[Tuple[str, str], ...] = ()
        self.read_only = isinstance(statement, _READ_ONLY)
        #: The plan of a SELECT, once ``Server.plan_select`` produced it;
        #: of a local DML, its compiled runner (``dml.compile_dml``).
        self.planned: Optional[Any] = None
        #: Plan slots of the SELECTs run on the statement's behalf: UNION
        #: ALL branches, an EXPLAIN's target, an INSERT's or a view's source.
        self.children: Tuple["BoundStatement", ...] = ()
        #: DECLARE / SET / PRINT: the compiled value (None: no initializer).
        self.scalar: Optional[Scalar] = None
        #: EXEC: ``(name, compiled expression)`` — for a local call every
        #: parameter in declaration order, with the caller's argument or
        #: the default; for a forwarded one each argument under its
        #: parameter marker in the forwarded text.
        self.arguments: Tuple[Tuple[str, Scalar], ...] = ()
        self.procedure: Optional[BoundProcedure] = None
        #: Forwarded DML / EXEC: ``(linked server, statement text)``.
        self.forward: Optional[Tuple[str, str]] = None

    def __repr__(self) -> str:
        return f"<BoundStatement {self.kind.__name__} v{self.version}>"


class BoundBatch:
    """A parsed batch and its bindings: the parse cache's value, and what
    a prepared handle pins."""

    __slots__ = ("version", "statements", "bound", "read_only")

    def __init__(self, version: int, statements: List[ast.Statement], bound: List[BoundStatement]):
        self.version = version
        self.statements = statements
        self.bound = bound
        #: Every statement is a pure query (and there is at least one).
        self.read_only = bool(bound) and all(statement.read_only for statement in bound)


def bind_statement(
    statement: ast.Statement,
    database,
    _procedures: Optional[Dict[str, BoundProcedure]] = None,
) -> BoundStatement:
    """Bind ``statement`` against ``database`` as it is now.

    ``_procedures`` carries the procedures already bound (or being bound)
    in this pass, so a recursive or repeated callee is bound once.
    """
    # Read first: a bump while binding leaves the result stale (and
    # re-bound at dispatch), never current-but-wrong.
    bound = BoundStatement(statement, database.version)
    _check_subquery_widths(statement, database)
    named = tuple(named_tables(statement))
    bound.lock_plan = statement_lock_plan(statement, database.catalog, named)
    objects = [("SELECT", name.object_name) for name in named]
    kind = bound.kind
    if kind is ast.UnionAll:
        bound.children = tuple(_plan_slot(branch, bound) for branch in statement.branches)
    elif kind is ast.Explain:
        bound.children = (_plan_slot(statement.statement, bound),)
    elif kind is ast.CreateView:
        bound.children = (_plan_slot(statement.select, bound),)
    elif kind in _DML_PERMISSION:
        target = statement.table.object_name
        objects.insert(0, (_DML_PERMISSION[kind], target))
        # Transparent forwarding: shadow tables and four-part names update
        # the real table on the owning server (paper §5: "all insert,
        # delete and update requests ... immediately converted to remote").
        server_name = statement.table.server
        if server_name is None and database.is_remote_table(target):
            server_name = database.backend_server
        if server_name is not None:
            bound.forward = (server_name, format_statement(_without_server_prefix(statement)))
        elif (view := database.catalog.maybe_view(target)) is not None:
            what = "cached view" if view.cached else "view"
            raise BindError(
                f"{_DML_PERMISSION[kind]} against non-updatable {what} {target!r}"
                + (" (replication maintains it)" if view.cached else "")
            )
        elif kind is ast.Insert and statement.select is not None:
            bound.children = (_plan_slot(statement.select, bound),)
    elif kind is ast.Execute:
        if len(statement.procedure) != 4:
            # A forwarded call runs over the link as dbo, so the caller's
            # right is checked here, against the shadowed permissions.
            objects.append(("EXECUTE", statement.procedure[-1]))
        _bind_execute(bound, database, _procedures if _procedures is not None else {})
    elif kind in _VARIABLE_STATEMENTS:
        expression = statement.initial if kind is ast.Declare else statement.value
        if expression is not None:
            bound.scalar = compile_scalar(expression)
    bound.objects = tuple(dict.fromkeys(objects))
    return bound


def _plan_slot(select: ast.Select, parent: BoundStatement) -> BoundStatement:
    """A SELECT run on ``parent``'s behalf: it needs a plan slot only —
    the parent's lock plan and object list already cover it."""
    return BoundStatement(select, parent.version)


def _bind_execute(
    bound: BoundStatement, database, procedures: Dict[str, BoundProcedure]
) -> None:
    """Resolve an ``EXEC`` to the local procedure or to its forwarded text.

    A forwarded call (paper §5.2) ships ``EXEC proc @a = @a, ...`` — one
    text per call shape, whatever the values — with the arguments
    evaluated by the caller and sent as parameters; positional arguments
    travel under reserved markers. No literal is formatted into the text,
    so the owning server parses and prepares it once. With neither a
    local procedure nor a server to forward to, both stay unset and the
    execution reports it.
    """
    statement = bound.statement
    name = statement.procedure[-1]
    explicit_server = statement.procedure[0] if len(statement.procedure) == 4 else None
    definition = database.catalog.maybe_procedure(name) if explicit_server is None else None
    if definition is not None:
        procedure = procedures.get(name.lower())
        if procedure is None:
            procedure = procedures[name.lower()] = BoundProcedure(definition)
            bind_procedure(
                procedure, lambda nested: bind_statement(nested, database, procedures)
            )
        bound.arguments = bind_arguments(procedure, statement.arguments)
        bound.procedure = procedure
        return
    server_name = explicit_server or database.backend_server
    if server_name is None:
        return
    markers = [
        arg_name or f"{RESERVED_PREFIX}{position}"
        for position, (arg_name, _) in enumerate(statement.arguments, 1)
    ]
    bound.arguments = tuple(
        (marker, compile_scalar(expression))
        for marker, (_, expression) in zip(markers, statement.arguments)
    )
    rewritten = ast.Execute(
        (name,),
        tuple(
            (arg_name, ast.Parameter(marker))
            for marker, (arg_name, _) in zip(markers, statement.arguments)
        ),
    )
    bound.forward = (server_name, format_statement(rewritten))


def _without_server_prefix(statement):
    """The DML statement with the linked-server part of its target removed."""
    table = statement.table
    if len(table.parts) >= 2:
        table = ast.TableName((table.parts[-1],), table.alias)
    if isinstance(statement, ast.Insert):
        return ast.Insert(table, statement.columns, statement.rows, statement.select)
    if isinstance(statement, ast.Update):
        return ast.Update(table, statement.assignments, statement.where)
    return ast.Delete(table, statement.where)


def _check_subquery_widths(statement: ast.Statement, database) -> None:
    """``IN (subquery)`` and scalar subqueries compare one column; a wider
    select list used to answer silently from its first."""
    for node in ast.walk_statement_expressions(statement):
        if isinstance(node, (ast.InSubquery, ast.ScalarSubquery)):
            if _select_width(node.subquery, database) != 1:
                raise BindError(
                    "only one expression can be specified in the select list "
                    "of a subquery not introduced with EXISTS"
                )


def _select_width(select: ast.Select, database) -> int:
    if not any(isinstance(item.expression, ast.Star) for item in select.items):
        return len(select.items)
    try:
        return len(derive_schema(database, select))
    except (BindError, CatalogError):
        # Names this catalog cannot resolve (yet: a table created earlier
        # in the same batch). Planning reports them, or the statement is
        # re-bound — and checked — once the schema has moved.
        return 1
