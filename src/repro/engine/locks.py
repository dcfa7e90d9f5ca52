"""The engine's locking hierarchy: database latch + table lock manager.

Two levels, always acquired top-down, which is what makes the protocol
deadlock-free by construction:

1. **Database latch** (:class:`DatabaseLatch`, one per
   :class:`~repro.engine.database.Database`). Ordinary statements take it
   *shared*; DDL and explicit multi-statement transactions take it
   *exclusive* (coarse two-phase locking — the session of an explicit
   transaction owns the database for its whole span, so its reads and
   writes need no finer-grained protection and fault-injected rollbacks
   stay simple).
2. **Table locks** (:class:`TableLockManager`). Autocommit statements
   running under the shared latch additionally lock the tables they
   touch: S for reads, X for the DML target. All of a statement's table
   locks are acquired in one batch, **sorted by table name** — a global
   acquisition order, so two statements can never hold locks the other
   one wants in reverse order.

Cross-server calls (cache → backend via a linked server) always flow in
one direction, so holding locks on the cache while the backend takes its
own is acyclic as well.

:func:`referenced_tables` derives the lock set from the statement AST —
the same walk discipline as :func:`repro.sql.ast.walk_statement_expressions`,
plus resolution of non-materialized views down to their base tables so a
view read locks what it actually scans.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.common.locks import RWLock, mutex
from repro.common.witness import LEVEL_LATCH, LEVEL_TABLE, annotate_lock
from repro.sql import ast


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class DatabaseLatch(RWLock):
    """The per-database reader-writer latch (level 1 of the hierarchy).

    A thread holding it exclusively (DDL, a writing procedure) passes
    freely through shared acquisition and through every table lock —
    exclusivity at the database level subsumes everything below it.

    An explicit transaction's hold is its *session's*, not a thread's:
    ``BEGIN`` parks it (``hold_for``), each later statement runs under
    ``held_by(session)`` on whatever thread carries it, and
    ``COMMIT``/``ROLLBACK`` — or the server's ``crash()`` — ends it.
    """

    def __init__(self) -> None:
        super().__init__()
        # Every database latch forms ONE witness class regardless of
        # which Database created it — level 1 of the modeled hierarchy.
        annotate_lock(self, "latch", LEVEL_LATCH)


class TableLockManager:
    """Per-table reader-writer locks with sorted batch acquisition."""

    def __init__(self) -> None:
        self._mutex = mutex()
        self._locks: Dict[str, RWLock] = {}

    def lock_for(self, name: str) -> RWLock:
        key = name.lower()
        lock = self._locks.get(key)
        if lock is None:
            with self._mutex:
                lock = self._locks.get(key)
                if lock is None:
                    lock = RWLock()
                    # One witness class for all table locks; nesting
                    # inside the class is sanctioned (ordered=True)
                    # because a lock plan acquires in sorted name order.
                    annotate_lock(lock, "table", LEVEL_TABLE, ordered=True)
                    self._locks[key] = lock
        return lock

    def locking(self, pairs: Iterable[Tuple[str, LockMode]]) -> "TableLocks":
        """A batch of table locks, resolved to this manager's locks.

        Duplicate names collapse with exclusive-wins semantics and the
        batch is sorted by name: every statement acquires in the same
        global order — the deadlock-avoidance rule. The server resolves
        a statement's lock plan here once, when it binds the statement;
        the replication apply resolves each transaction's set.
        """
        modes: Dict[str, LockMode] = {}
        for name, mode in pairs:
            key = name.lower()
            if modes.get(key) is not LockMode.EXCLUSIVE:
                modes[key] = mode
        return TableLocks(tuple((self.lock_for(key), modes[key]) for key in sorted(modes)))

    def __repr__(self) -> str:
        return f"<TableLockManager tables={len(self._locks)}>"


class TableLocks:
    """A batch of table locks as a plain context manager: entering
    acquires them in the given (sorted) order, leaving releases them in
    reverse. It holds no per-use state, so one instance — resolved when a
    statement is bound — serves every execution on every thread."""

    __slots__ = ("locks",)

    def __init__(self, locks: Sequence[Tuple[RWLock, LockMode]]):
        #: ``(lock, exclusive)`` in acquisition order.
        self.locks = tuple((lock, mode is LockMode.EXCLUSIVE) for lock, mode in locks)

    def __enter__(self) -> None:
        taken = 0
        try:
            for lock, exclusive in self.locks:
                if exclusive:
                    lock.acquire_exclusive()
                else:
                    lock.acquire_shared()
                taken += 1
        except BaseException:
            _release(self.locks[:taken])
            raise

    def __exit__(self, *exc) -> None:
        _release(self.locks)


def _release(locks: Tuple[Tuple[RWLock, bool], ...]) -> None:
    for lock, exclusive in reversed(locks):
        if exclusive:
            lock.release_exclusive()
        else:
            lock.release_shared()


@dataclass(frozen=True)
class LockPlan:
    """What one statement must hold: latch mode + sorted table locks."""

    latch: LockMode
    tables: Tuple[Tuple[str, LockMode], ...] = ()


#: Statements that restructure the catalog: they take the latch exclusive,
#: which subsumes every table lock.
_DDL_STATEMENTS = (
    ast.CreateTable,
    ast.CreateIndex,
    ast.CreateView,
    ast.CreateProcedure,
    ast.DropObject,
    ast.Grant,
)

_READ_STATEMENTS = (ast.Select, ast.UnionAll, ast.Explain)
_DML_STATEMENTS = (ast.Insert, ast.Update, ast.Delete)


def named_tables(statement: ast.Statement) -> Iterator[ast.TableName]:
    """Yield every FROM-clause table name reachable from ``statement``,
    descending into joins, derived tables, subqueries and UNION branches
    (DML *targets* are handled separately by :func:`referenced_tables`).

    These are the names *as written* — before view expansion — which is
    what permissions are checked against; the binder walks a statement
    once and hands the result to :func:`statement_lock_plan` as well."""
    pending: List[ast.Statement] = [statement]

    def expr_subqueries(expression: ast.Expression) -> None:
        for node in ast.walk_expression(expression):
            if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
                pending.append(node.subquery)

    def from_ref(ref: Optional[ast.TableRef]) -> Iterator[ast.TableName]:
        if ref is None:
            return
        if isinstance(ref, ast.TableName):
            yield ref
        elif isinstance(ref, ast.JoinRef):
            if ref.condition is not None:
                expr_subqueries(ref.condition)
            yield from from_ref(ref.left)
            yield from from_ref(ref.right)
        elif isinstance(ref, ast.DerivedTable):
            pending.append(ref.select)

    while pending:
        node = pending.pop()
        if isinstance(node, ast.Select):
            yield from from_ref(node.from_clause)
            for item in node.items:
                expr_subqueries(item.expression)
            for expression in (node.where, node.having, node.top):
                if expression is not None:
                    expr_subqueries(expression)
            for expression in node.group_by:
                expr_subqueries(expression)
            for order in node.order_by:
                expr_subqueries(order.expression)
        elif isinstance(node, ast.UnionAll):
            pending.extend(node.branches)
        elif isinstance(node, ast.Explain):
            pending.append(node.statement)
        elif isinstance(node, ast.CreateView):
            pending.append(node.select)
        elif isinstance(node, ast.Insert):
            if node.select is not None:
                pending.append(node.select)
            for row in node.rows:
                for expression in row:
                    expr_subqueries(expression)
        elif isinstance(node, ast.Update):
            for _, expression in node.assignments:
                expr_subqueries(expression)
            if node.where is not None:
                expr_subqueries(node.where)
        elif isinstance(node, ast.Delete):
            if node.where is not None:
                expr_subqueries(node.where)
        elif isinstance(node, (ast.Declare, ast.SetVariable, ast.PrintStatement)):
            # Session-level variable statements can embed scalar
            # subqueries (``SET @x = (SELECT ...)``) that read tables.
            expression = getattr(node, "initial", None) or getattr(node, "value", None)
            if expression is not None:
                expr_subqueries(expression)


def referenced_tables(
    statement: ast.Statement,
    catalog=None,
    named: Optional[Sequence[ast.TableName]] = None,
) -> Tuple[Set[str], Set[str]]:
    """Return ``(reads, writes)``: lowercase local table names the
    statement touches (``named``: its :func:`named_tables`, when the
    caller has already walked it).

    Non-materialized views are resolved recursively down to their base
    tables (a view scan locks what it actually reads); materialized and
    cached views lock their backing heap, which shares the view's name.
    Four-part linked-server names are skipped — the remote server takes
    its own locks when the forwarded statement executes there.
    """
    reads: Set[str] = set()
    writes: Set[str] = set()
    if isinstance(statement, _DML_STATEMENTS) and statement.table.server is None:
        writes.add(statement.table.object_name.lower())
    expanded_views: Set[str] = set()
    pending: List[ast.TableName] = list(named if named is not None else named_tables(statement))
    while pending:
        name = pending.pop()
        if name.server is not None:
            continue
        key = name.object_name.lower()
        view = catalog.maybe_view(name.object_name) if catalog is not None else None
        if view is not None and not view.materialized:
            if key not in expanded_views:
                expanded_views.add(key)
                pending.extend(named_tables(view.select))
            continue
        reads.add(key)
    return reads, writes


def _procedure_writes(body, catalog, seen: Set[str]) -> bool:
    """Does any statement in a procedure body (transitively) write?

    Descends into IF/WHILE blocks and nested EXEC calls. An unresolvable
    callee is assumed to write — over-locking is safe, a lost update is
    not.
    """
    for statement in body:
        if isinstance(statement, _DML_STATEMENTS + _DDL_STATEMENTS):
            return True
        if isinstance(statement, ast.IfStatement):
            if _procedure_writes(statement.then_body, catalog, seen):
                return True
            if _procedure_writes(statement.else_body, catalog, seen):
                return True
        elif isinstance(statement, ast.WhileStatement):
            if _procedure_writes(statement.body, catalog, seen):
                return True
        elif isinstance(statement, ast.Execute):
            name = statement.procedure[-1].lower()
            if name in seen:
                continue
            seen.add(name)
            callee = catalog.maybe_procedure(name) if catalog is not None else None
            if callee is None or _procedure_writes(callee.body, catalog, seen):
                return True
    return False


def statement_lock_plan(
    statement: ast.Statement,
    catalog=None,
    named: Optional[Sequence[ast.TableName]] = None,
) -> Optional[LockPlan]:
    """Classify a statement into the locks its dispatch must hold.

    The one derivation: the server's binder
    (:func:`repro.engine.binding.bind_statement`) calls it once per
    statement and schema version and executions read the result, so the
    plan the concurrency analysis checks is the plan that runs. ``named``
    is the statement's :func:`named_tables` when already walked.

    Returns ``None`` for statements the locked dispatcher handles
    specially (transaction control takes the latch for the transaction's
    whole span) or that touch no shared state (DECLARE, SET, PRINT).

    ``EXEC`` of a *writing* procedure takes the latch exclusive for the
    whole call: procedure bodies are classic read-modify-write sequences
    (``SELECT MAX(id) + 1`` then ``INSERT``), and locking each inner
    statement separately would let two concurrent calls interleave
    between the read and the dependent write. Read-only procedures get
    ``None`` — their inner statements lock individually as the body runs.
    ``EXEC`` of a procedure this server will forward also gets ``None``:
    the executing server makes the whole forwarded call atomic under its
    own latch.
    """
    if isinstance(statement, _DDL_STATEMENTS):
        return LockPlan(latch=LockMode.EXCLUSIVE)
    if isinstance(statement, ast.Execute):
        if len(statement.procedure) == 4:
            return None  # explicit remote call: the remote server locks
        name = statement.procedure[-1]
        procedure = catalog.maybe_procedure(name) if catalog is not None else None
        if procedure is None:
            return None  # forwarded to the backend, which takes its own locks
        if _procedure_writes(procedure.body, catalog, {name.lower()}):
            return LockPlan(latch=LockMode.EXCLUSIVE)
        return None
    variable_statements = (ast.Declare, ast.SetVariable, ast.PrintStatement)
    if isinstance(statement, _READ_STATEMENTS + _DML_STATEMENTS + variable_statements):
        reads, writes = referenced_tables(statement, catalog, named)
        if isinstance(statement, variable_statements) and not (reads or writes):
            return None  # pure variable assignment touches no shared state
        modes: Dict[str, LockMode] = {name: LockMode.SHARED for name in reads}
        modes.update({name: LockMode.EXCLUSIVE for name in writes})
        return LockPlan(latch=LockMode.SHARED, tables=tuple(sorted(modes.items())))
    return None
