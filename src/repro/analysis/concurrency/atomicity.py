"""Atomicity checker: does every mutation path hold the locks it needs?

Three rule families, all double-entry checks — each verifies the locking
protocol with machinery *independent* of the code that implements it:

* **unclassified-statement** — every concrete :class:`repro.sql.ast.Statement`
  subclass must be classified by :func:`~repro.engine.locks.statement_lock_plan`
  (plan-producing, transaction control, procedure-body control flow, or a
  documented no-shared-state statement). A new statement class added to
  the grammar without a locking story fails here before it can race.
* **exec-span** / **missing-table-lock** — over a real provisioned
  catalog (backend + cache): ``EXEC`` of a writing procedure must take
  the latch exclusive for the whole call span; every other statement's
  plan must cover the tables an *independent* AST walk (a generic
  dataclass-field traversal, not the engine's ``named_tables``) says it
  reads and writes — S or better for reads, X for writes. The plans
  checked are read through :func:`~repro.engine.binding.bind_statement`,
  the bind step the server's dispatcher takes its locks from: the
  analysed plan is the executed one, not a second derivation.
* **rebalance-drain** / **boundary-move-window** — the sharding
  deployment's rebalance operations must drain replication (``sync()``)
  before touching slice state, and the boundary cutover must go through
  :meth:`RangePartitioner.move_boundary` — one atomic version bump, not
  a pair of ``set_slice`` calls a concurrent router could interleave.
"""

from __future__ import annotations

import ast as pyast
import inspect
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.binding import bind_statement
from repro.engine.locks import LockMode, _procedure_writes
from repro.engine.procedures import call_with_every_parameter
from repro.errors import AnalysisError
from repro.sql import ast as sqlast
from repro.sql import parse

#: Statement classes the dispatcher intentionally runs without a lock
#: plan, and why that is safe.
_NO_PLAN_STATEMENTS = {
    # Transaction control: _begin_transaction takes the latch exclusive
    # and parks the hold on the session for the transaction's whole span;
    # COMMIT/ROLLBACK end it. The latch *is* the plan.
    "BeginTransaction",
    "CommitTransaction",
    "RollbackTransaction",
    # Procedure-body control flow: only reachable inside a procedure
    # body, which executes under the EXEC's plan (exclusive latch for
    # writers) or statement-at-a-time dispatch (read-only bodies).
    "IfStatement",
    "WhileStatement",
    "ReturnStatement",
}

#: Statement classes whose instances statement_lock_plan must classify.
_PLANNED_STATEMENTS = {
    "Select",
    "UnionAll",
    "Explain",
    "Insert",
    "Update",
    "Delete",
    "CreateTable",
    "CreateIndex",
    "CreateView",
    "CreateProcedure",
    "DropObject",
    "Grant",
    "Declare",
    "SetVariable",
    "PrintStatement",
    "Execute",
}


def check_statement_coverage(
    statements: Optional[Sequence[type]] = None,
) -> List[AnalysisError]:
    """Every concrete Statement subclass must have a locking story."""
    if statements is None:
        statements = [
            obj
            for obj in vars(sqlast).values()
            if inspect.isclass(obj)
            and issubclass(obj, sqlast.Statement)
            and obj is not sqlast.Statement
        ]
    diagnostics: List[AnalysisError] = []
    for cls in statements:
        if cls.__name__ in _PLANNED_STATEMENTS or cls.__name__ in _NO_PLAN_STATEMENTS:
            continue
        diagnostics.append(
            AnalysisError(
                "unclassified-statement",
                f"statement class {cls.__name__} is not classified by "
                "statement_lock_plan and has no documented no-plan story; "
                "a dispatcher running it would hold no locks",
                location=f"repro/sql/ast.py::{cls.__name__}",
            )
        )
    return diagnostics


# -- independent table walk -----------------------------------------------


def _walk_table_names(node: object) -> Iterator[sqlast.TableName]:
    """Every TableName reachable from a statement, via generic field
    traversal — deliberately independent of the engine's own walker."""
    if isinstance(node, sqlast.TableName):
        yield node
        return
    if isinstance(node, sqlast.Node):
        for name in node._fields:
            yield from _walk_table_names(getattr(node, name))
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _walk_table_names(item)


def _expected_modes(
    statement: sqlast.Statement, catalog
) -> Dict[str, LockMode]:
    """Lowercase table -> the weakest acceptable lock mode, independently
    derived: DML target is a write, every other local name is a read,
    non-materialized views expand to their base tables."""
    modes: Dict[str, LockMode] = {}
    write_target: Optional[str] = None
    if isinstance(statement, (sqlast.Insert, sqlast.Update, sqlast.Delete)):
        if statement.table.server is None:
            write_target = statement.table.object_name.lower()
    expanded: Set[str] = set()
    pending: List[object] = [statement]
    while pending:
        node = pending.pop()
        for name in _walk_table_names(node):
            if name.server is not None:
                continue
            key = name.object_name.lower()
            view = catalog.maybe_view(key) if catalog is not None else None
            if view is not None and not view.materialized:
                if key not in expanded:
                    expanded.add(key)
                    pending.append(view.select)
                continue
            if modes.get(key) is not LockMode.EXCLUSIVE:
                modes[key] = LockMode.SHARED
    if write_target is not None:
        modes[write_target] = LockMode.EXCLUSIVE
    return modes


def _plan_covers(
    statement: sqlast.Statement,
    catalog,
    lock_plan: Callable,
    where: str,
) -> List[AnalysisError]:
    """Does the statement's lock plan cover its independent table walk?"""
    plan = lock_plan(statement, catalog)
    expected = _expected_modes(statement, catalog)
    if plan is None:
        if not expected:
            return []  # touches no shared state; no plan needed
        return [
            AnalysisError(
                "missing-table-lock",
                f"{type(statement).__name__} touches "
                f"{sorted(expected)} but has no lock plan",
                location=where,
            )
        ]
    if plan.latch is LockMode.EXCLUSIVE:
        return []  # exclusive latch subsumes every table lock
    granted = dict(plan.tables)
    diagnostics: List[AnalysisError] = []
    for table, needed in sorted(expected.items()):
        held = granted.get(table)
        if held is None or (needed is LockMode.EXCLUSIVE and held is not needed):
            diagnostics.append(
                AnalysisError(
                    "missing-table-lock",
                    f"{type(statement).__name__} needs {needed.value} on "
                    f"{table!r} but the plan grants {held.value if held else 'nothing'}",
                    location=where,
                )
            )
    return diagnostics


def _body_statements(
    body: Sequence[sqlast.Statement],
) -> Iterator[sqlast.Statement]:
    for statement in body:
        yield statement
        if isinstance(statement, sqlast.IfStatement):
            yield from _body_statements(statement.then_body)
            yield from _body_statements(statement.else_body)
        elif isinstance(statement, sqlast.WhileStatement):
            yield from _body_statements(statement.body)


def check_lock_plans(
    database,
    where: str,
    lock_plan: Optional[Callable] = None,
) -> List[AnalysisError]:
    """Verify plan coverage over one provisioned database's catalog.

    ``lock_plan(statement, catalog)`` defaults to the lock plan of the
    statement as the server binds it (tests substitute weakened plans).

    * every *writing* procedure's EXEC plan is an exclusive latch span;
    * every statement in every *read-only* procedure body individually
      covers its reads (those bodies dispatch statement-at-a-time);
    * a synthetic single-table DML per base table covers its write —
      the ad-hoc autocommit path.
    """
    catalog = database.catalog
    if lock_plan is None:
        lock_plan = lambda statement, catalog: bind_statement(statement, database).lock_plan
    diagnostics: List[AnalysisError] = []
    for name, procedure in sorted(catalog.procedures.items()):
        writes = _procedure_writes(procedure.body, catalog, {name.lower()})
        exec_plan = lock_plan(call_with_every_parameter(procedure), catalog)
        if writes:
            if exec_plan is None or exec_plan.latch is not LockMode.EXCLUSIVE:
                diagnostics.append(
                    AnalysisError(
                        "exec-span",
                        f"procedure {procedure.name} writes, but EXEC's plan "
                        f"is {exec_plan!r} instead of an exclusive latch "
                        "span; two calls could interleave between its read "
                        "and its dependent write",
                        location=where,
                    )
                )
            continue  # the exclusive span subsumes per-statement checks
        for statement in _body_statements(procedure.body):
            if isinstance(
                statement,
                (
                    sqlast.IfStatement,
                    sqlast.WhileStatement,
                    sqlast.ReturnStatement,
                    sqlast.Execute,
                ),
            ):
                continue
            diagnostics += _plan_covers(
                statement, catalog, lock_plan, f"{where}::{procedure.name}"
            )
    for table in sorted(catalog.tables):
        diagnostics += _plan_covers(
            parse(f"DELETE FROM {table}"),
            catalog,
            lock_plan,
            f"{where}::<ad-hoc DML on {table}>",
        )
    return diagnostics


# -- the shard rebalance window (static, over deployment.py's AST) ---------

_SLICE_MUTATORS = {"set_slice", "add_shard", "remove_shard", "move_boundary"}


def _call_attr(node: pyast.AST) -> Optional[Tuple[str, str]]:
    """``("base.dotted.path", "method")`` for an attribute call."""
    if not (isinstance(node, pyast.Call) and isinstance(node.func, pyast.Attribute)):
        return None
    parts: List[str] = []
    value: pyast.AST = node.func.value
    while isinstance(value, pyast.Attribute):
        parts.append(value.attr)
        value = value.value
    if isinstance(value, pyast.Name):
        parts.append(value.id)
    return ".".join(reversed(parts)), node.func.attr


def check_rebalance_protocol(source: Optional[str] = None) -> List[AnalysisError]:
    """Static protocol check over ``sharding/deployment.py``.

    Every method that mutates partitioner slices must (a) drain
    replication with ``sync()`` *before* the first slice mutation or
    retarget (``rebalance-drain``), and (b) commit a boundary move via
    the atomic ``partitioner.move_boundary`` — two ``set_slice`` calls
    open a window where a concurrent router sees a torn boundary
    (``boundary-move-window``).
    """
    if source is None:
        from repro.sharding import deployment as deployment_module

        path = inspect.getsourcefile(deployment_module)
        assert path is not None
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    where = "repro/sharding/deployment.py"
    tree = pyast.parse(source)
    diagnostics: List[AnalysisError] = []
    for node in pyast.walk(tree):
        if not isinstance(node, pyast.FunctionDef):
            continue
        drained = False
        set_slice_calls = 0
        for call in pyast.walk(node):
            resolved = _call_attr(call)
            if resolved is None:
                continue
            base, method = resolved
            is_mutation = (
                base.endswith("partitioner") and method in _SLICE_MUTATORS
            ) or method == "_retarget"
            if method == "sync":
                drained = True
            elif is_mutation and not drained:
                diagnostics.append(
                    AnalysisError(
                        "rebalance-drain",
                        f"{node.name} mutates shard slices "
                        f"({base}.{method}) without draining replication "
                        "first; commands produced under the old slices "
                        "would classify against the new predicates",
                        location=f"{where}:{call.lineno}",
                    )
                )
                drained = True  # report once per function
            if base.endswith("partitioner") and method == "set_slice":
                set_slice_calls += 1
        if set_slice_calls >= 2:
            diagnostics.append(
                AnalysisError(
                    "boundary-move-window",
                    f"{node.name} commits a boundary move as "
                    f"{set_slice_calls} separate set_slice calls; use "
                    "partitioner.move_boundary so concurrent routers "
                    "never observe a torn boundary",
                    location=where,
                )
            )
    return diagnostics


def check_atomicity(
    backend=None,
    cache=None,
    lock_plan: Optional[Callable] = None,
) -> List[AnalysisError]:
    """Run all atomicity rules; corpus-driven rules run when given servers."""
    diagnostics = check_statement_coverage()
    diagnostics += check_rebalance_protocol()
    if backend is not None:
        for name, database in sorted(backend.databases.items()):
            diagnostics += check_lock_plans(
                database, f"{backend.name}:{name}", lock_plan
            )
    if cache is not None:
        diagnostics += check_lock_plans(
            cache.database, f"{cache.server.name}", lock_plan
        )
    return diagnostics
