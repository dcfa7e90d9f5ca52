"""The server: statement dispatch, plan cache, linked-server endpoint.

One :class:`Server` instance models one SQL Server. It accepts SQL text
(or pre-parsed ASTs from stored procedures), plans SELECTs through the
MTCache-extended optimizer with a version-checked plan cache, executes DML
locally or forwards it to the backend (the transparent-update rule), runs
stored procedures locally or forwards the call, and serves as a linked
server for other instances' remote subexpressions.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.common.clock import SimulatedClock
from repro.common.lru import LRUCache
from repro.engine.database import Database
from repro.engine.ddl import (
    execute_create_index,
    execute_create_procedure,
    execute_create_table,
    execute_create_view,
    execute_drop,
    execute_grant,
)
from repro.engine.dml import execute_delete, execute_insert, execute_update
from repro.engine.locks import LockMode, statement_lock_plan
from repro.engine.procedures import ProcedureInterpreter
from repro.engine.results import Result
from repro.engine.session import Session
from repro.errors import (
    CatalogError,
    ExecutionError,
    LexError,
    ParseError,
    PreparedStatementError,
    TransactionError,
    TypeCheckError,
)
from repro.exec.context import (
    DEFAULT_BATCH_ROWS,
    ExecutionContext,
    WorkCounters,
)
from repro.exec.operators import BatchCursor, PhysicalOperator
from repro.obs.metrics import CounterGroupView, MetricsRegistry
from repro.obs.tracing import NULL_SPAN as _NULL_SPAN
from repro.obs.tracing import Tracer, active_span
from repro.optimizer.cost import CostModel
from repro.optimizer.planner import Optimizer, PlannedStatement
from repro.sql import RESERVED_PREFIX, ast, lift_literals, overlay, parse_statements
from repro.sql.formatter import format_statement

#: The work-counter field names, taken from the dataclass so the
#: registry-backed facade and the per-execution accumulator never drift.
WORK_FIELDS = tuple(field.name for field in dataclasses.fields(WorkCounters))

#: Capacity of the SQL-text -> statements and statement -> plan LRUs.
STATEMENT_CACHE_SIZE = 512


class PreparedStatement:
    """The server-side half of the prepare/execute protocol (paper §4.3).

    Holds the statement text plus its parsed form — the statements of the
    text's literal-lifted template and the values lifted out of it — pinned
    to the schema version it was prepared under. When the version moves
    (DDL on the target database), the next execution transparently
    re-prepares: the text is re-parsed and the plan cache — itself
    version-checked — re-plans against the new schema.
    """

    __slots__ = (
        "handle_id", "sql", "database_key", "statements", "lifted", "version", "reprepares",
    )  # fmt: skip

    def __init__(
        self,
        handle_id: int,
        sql: str,
        database_key: str,
        statements: List[ast.Statement],
        lifted: Dict[str, Any],
        version: int,
    ):
        self.handle_id = handle_id
        self.sql = sql
        self.database_key = database_key
        self.statements = statements
        self.lifted = lifted
        self.version = version
        self.reprepares = 0

    def __repr__(self) -> str:
        text = self.sql if len(self.sql) <= 40 else self.sql[:37] + "..."
        return f"<PreparedStatement #{self.handle_id} {text!r} v{self.version}>"


class Server:
    """A database server instance (backend or mid-tier cache)."""

    def __init__(
        self,
        name: str,
        clock: Optional[SimulatedClock] = None,
        cost_model: Optional[CostModel] = None,
        optimizer_options: Optional[Dict[str, Any]] = None,
        checked_plans: Optional[bool] = None,
        batch_rows: int = DEFAULT_BATCH_ROWS,
    ):
        from repro.distributed.linked_server import LinkedServerRegistry

        self.name = name
        self.clock = clock or SimulatedClock()
        self.cost_model = cost_model or CostModel()
        self.optimizer_options = dict(optimizer_options or {})
        self.databases: Dict[str, Database] = {}
        self.default_database: Optional[str] = None
        # Observability (repro.obs): a per-server metrics registry plus a
        # tracer exporting to the process-global span collector.
        self.metrics = MetricsRegistry(namespace=name)
        self.tracer = Tracer(service=name)
        self._statement_seconds = self.metrics.histogram("engine.statement_seconds")
        # Plans are drained through BatchCursor in chunks of ``batch_rows``.
        # Instruments are created eagerly so ``exec.*`` always appears in
        # metrics exports.
        self.batch_rows = batch_rows
        self._exec_batches = self.metrics.counter("exec.batches")
        self._exec_batch_rows = self.metrics.histogram("exec.batch_rows")
        self._compiled_cache_hits = self.metrics.counter("exec.compiled_cache_hits")
        self._compiled_cache_misses = self.metrics.counter("exec.compiled_cache_misses")
        #: Opt-in per-operator profiling for every SELECT on this server
        #: (per-session opt-in: ``Session.statistics_profile``).
        self.profile_statements = False
        self.linked_servers = LinkedServerRegistry(
            tracer=self.tracer, clock=self.clock, metrics=self.metrics
        )
        #: False while crashed (see :meth:`crash`); entry points raise
        #: ``ServerUnavailableError`` so callers can retry or reroute.
        self.available = True
        #: Optional overload gate (repro.resilience.overload), attached by
        #: assignment: when set, every entry point (execute / prepare_sql
        #: / execute_prepared) must be admitted or fails fast with
        #: ``OverloadError`` — bounded virtual queue instead of unbounded
        #: pile-up. Entry points also honor the ambient end-to-end deadline.
        self.admission: Optional[Any] = None
        self.crashes = 0
        self._optimizers: Dict[str, Tuple[int, Optimizer]] = {}
        # Checked execution (repro.analysis): verify every freshly
        # optimized plan against the structural invariants before it is
        # cached or run. Defaults from REPRO_CHECKED_PLANS; the test
        # suite turns it on globally, MTCache deployments force it on
        # for cache servers.
        if checked_plans is None:
            from repro.analysis import checked_plans_default

            checked_plans = checked_plans_default()
        self.checked_plans = checked_plans
        # Statement fast path (all version-checked, all bounded LRUs):
        # literal-lifted SQL template -> parsed statement list, and
        # (database, statement) -> plan. No literal reaches either key.
        self._parse_cache: LRUCache = LRUCache(STATEMENT_CACHE_SIZE)
        self._plan_cache: LRUCache = LRUCache(STATEMENT_CACHE_SIZE)
        # Prepared statements this server holds for its clients
        # (linked servers executing by handle).
        self._prepared: Dict[int, PreparedStatement] = {}
        self._prepared_ids = itertools.count(1)
        # Forwarding fast path: rewritten DML / EXEC AST -> its SQL text
        # (the text in turn keys the link's shared prepared handle).
        self._forward_cache: LRUCache = LRUCache(256)
        #: How many times the lexer/parser actually ran (parse-cache
        #: misses). Benchmarks read deltas of this.
        self.parses = 0
        # Cumulative work executed on this server (simulator calibration).
        # The counters live in the metrics registry and ``total_work`` is
        # an attribute-compatible facade over them; per-execution
        # accumulation uses the plain dataclass.
        self.total_work = CounterGroupView(self.metrics, "work", WORK_FIELDS)
        self.statements_executed = 0

    # -- crash / restart (fault injection) -----------------------------------

    def crash(self) -> None:
        """Simulate a process crash: volatile state is lost, durable state
        (tables, the replication watermark held by subscriptions) is kept.

        Prepared-statement handles are the canonical volatile state —
        clearing them makes remote links holding handle ids go through
        their ``PreparedStatementError`` re-prepare path after restart.
        Any in-flight transaction is rolled back, modeling the loss of
        uncommitted work.
        """
        self.available = False
        self.crashes += 1
        self._prepared.clear()
        self._forward_cache.clear()
        for database in self.databases.values():
            for transaction in database.transactions.active_transactions():
                database.transactions.rollback(transaction)
            # A crash on the thread holding the latch (single-threaded
            # chaos runs) must not leak the exclusive hold; latches held
            # by *other* threads are released by their sessions'
            # _end_transaction_scope when COMMIT/ROLLBACK fails.
            while database.latch.owns_exclusive():
                database.latch.release_exclusive()
        self.metrics.counter("faults.server_crashes").inc()

    def restart(self) -> None:
        """Bring a crashed server back (cold caches, empty prepared set)."""
        self.available = True
        self.metrics.counter("faults.server_restarts").inc()

    def healthy(self) -> bool:
        """Health probe used by pool checkout (parallels CacheServer.healthy)."""
        return self.available

    def _check_available(self) -> None:
        if not self.available:
            from repro.errors import ServerUnavailableError

            raise ServerUnavailableError(f"server {self.name!r} is down")

    def _admit(self, what: str) -> None:
        """Overload gate for the entry points: deadline, then admission.

        The deadline check comes first — a request whose budget is
        already gone must not consume an admission token (it would be
        thrown away after the work anyway).
        """
        from repro.resilience.deadline import current_deadline

        deadline = current_deadline()
        if deadline is not None and deadline.expired():
            from repro.errors import DeadlineExceededError

            self.metrics.counter("overload.deadline_misses").inc()
            raise DeadlineExceededError(
                f"deadline exceeded before {what} on server {self.name!r}"
            )
        if self.admission is not None:
            self.admission.admit(what)

    # -- databases -----------------------------------------------------------

    def create_database(self, name: str, make_default: bool = True) -> Database:
        if name.lower() in self.databases:
            raise CatalogError(f"database {name!r} already exists")
        database = Database(name, clock=self.clock)
        database.owner_server = self
        self.databases[name.lower()] = database
        if make_default or self.default_database is None:
            self.default_database = name.lower()
        return database

    def database(self, name: Optional[str] = None) -> Database:
        key = (name or self.default_database or "").lower()
        database = self.databases.get(key)
        if database is None:
            raise CatalogError(f"no database {name or '(default)'!r} on server {self.name!r}")
        return database

    def optimizer_for(self, database: Database) -> Optimizer:
        cached = self._optimizers.get(database.name.lower())
        if cached is not None and cached[0] == database.version:
            return cached[1]
        optimizer = Optimizer(
            database,
            cost_model=self.cost_model,
            metrics=self.metrics,
            **self.optimizer_options,
        )
        self._optimizers[database.name.lower()] = (database.version, optimizer)
        return optimizer

    # -- public execution API --------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Optional[Dict[str, Any]] = None,
        session: Optional[Session] = None,
        database: Optional[str] = None,
    ) -> Result:
        """Execute a SQL batch; returns the last statement's result."""
        self._check_available()
        self._admit("statement batch")
        session = session or Session()
        target = self.database(database or session.database)
        tracer = self.tracer
        span = tracer.span("batch", sql=sql) if tracer.enabled else _NULL_SPAN
        with span:
            statements, lifted = self._parse_sql(sql, target)
            return self._run_batch(sql, statements, lifted, params, session, target)

    def parsed(self, sql: str, database: Optional[str] = None) -> List[ast.Statement]:
        """The batch's statements, through the same literal-lifting,
        version-checked parse cache every execution uses."""
        return self._parse_sql(sql, self.database(database))[0]

    def _parse_sql(
        self, sql: str, database: Database
    ) -> Tuple[List[ast.Statement], Dict[str, Any]]:
        """Parse a batch through the version-checked template cache.

        Literals are lifted to reserved parameter markers first
        (:func:`repro.sql.lift_literals`), so the key — and, through the
        frozen AST, every plan-cache, forwarding-cache and remote-handle
        key derived from it — is the text's template: ``WHERE cid = 1`` and
        ``WHERE cid = 2`` are one entry, one dynamic plan. Returns the
        template's statements and the lifted values they run under.

        Keys are interned so repeated batches compare by pointer and skip
        the lexer/parser entirely. AST nodes are frozen, so the cached
        statement list is safe to re-execute. A template that does not
        parse is parsed again as the text the client sent (cold path), so
        a syntax error's line and column are the client's own.
        """
        template, lifted = lift_literals(sql)
        key = (database.name.lower(), sys.intern(template))
        version = database.version
        entry = self._parse_cache.get(key, valid=lambda e: e[0] == version)
        if entry is not None:
            self.total_work.inc("parse_cache_hits")
            return entry[1], lifted
        self.parses += 1
        try:
            statements = parse_statements(template)
        except (LexError, ParseError):
            if not lifted:
                raise
            return parse_statements(sql), {}
        self._parse_cache[key] = (version, statements)
        return statements, lifted

    def _run_batch(
        self,
        sql: str,
        statements: List[ast.Statement],
        lifted: Dict[str, Any],
        params: Optional[Dict[str, Any]],
        session: Session,
        database: Database,
    ) -> Result:
        """Run a parsed batch under the caller's parameters laid over the
        lifted ones; returns the last statement's result. A caller whose
        own names use the reserved prefix gets its text run as written."""
        if lifted:
            merged = overlay(lifted, params)
            if merged is None:
                statements = parse_statements(sql)
            else:
                params = merged
        result = Result()
        for statement in statements:
            result = self.execute_statement(
                statement, params=params, session=session, database=database
            )
        return result

    def execute_statement(
        self,
        statement: ast.Statement,
        params: Optional[Dict[str, Any]] = None,
        session: Optional[Session] = None,
        database: Optional[Database] = None,
    ) -> Result:
        session = session or Session()
        database = database or self.database(session.database)
        merged = session.merged_params(params)
        self.statements_executed += 1
        started = time.perf_counter()
        if self.tracer.enabled:
            with self.tracer.span("statement", statement=type(statement).__name__):
                result = self._dispatch_statement(statement, merged, database, session)
        else:
            result = self._dispatch_statement(statement, merged, database, session)
        self._statement_seconds.observe(time.perf_counter() - started)
        return result

    def _dispatch_statement(
        self,
        statement: ast.Statement,
        merged: Dict[str, Any],
        database: Database,
        session: Session,
    ) -> Result:
        """Acquire the statement's locks, then dispatch.

        The locking hierarchy (see :mod:`repro.engine.locks`): transaction
        control manages the database latch across statements (an explicit
        transaction holds it exclusively for its whole span); DDL takes
        the latch exclusive for one statement; everything else takes it
        shared plus sorted per-table locks. A thread already holding the
        latch exclusively — explicit transaction, or a nested dispatch
        from a procedure body — skips both levels.
        """
        if isinstance(statement, ast.BeginTransaction):
            return self._begin_transaction(database, session)
        if isinstance(statement, ast.CommitTransaction):
            return self._commit_transaction(database, session)
        if isinstance(statement, ast.RollbackTransaction):
            return self._rollback_transaction(database, session)
        plan = statement_lock_plan(statement, database.catalog)
        if plan is None or database.latch.owns_exclusive():
            return self._dispatch_unlocked(statement, merged, database, session)
        if plan.latch is LockMode.EXCLUSIVE:
            with database.latch.exclusive():
                return self._dispatch_unlocked(statement, merged, database, session)
        with database.latch.shared():
            with database.lock_manager.locking(plan.tables):
                return self._dispatch_unlocked(statement, merged, database, session)

    # -- transaction control ----------------------------------------------

    def _begin_transaction(self, database: Database, session: Session) -> Result:
        """BEGIN TRANSACTION: coarse 2PL — the session owns the database.

        The latch is taken exclusively *before* the transaction starts and
        held until COMMIT/ROLLBACK, so everything the transaction reads or
        writes is isolated without finer-grained locks, and concurrent
        sessions simply queue behind it.
        """
        if session.in_transaction:
            raise TransactionError("a transaction is already active")
        database.latch.acquire_exclusive()
        try:
            transaction = database.transactions.begin()
        except BaseException:
            database.latch.release_exclusive()
            raise
        session.in_transaction = True
        session.transaction = transaction
        return Result(messages=["transaction started"])

    def _commit_transaction(self, database: Database, session: Session) -> Result:
        try:
            database.transactions.commit(session.transaction)
        finally:
            self._end_transaction_scope(database, session)
        return Result(messages=["transaction committed"])

    def _rollback_transaction(self, database: Database, session: Session) -> Result:
        try:
            database.transactions.rollback(session.transaction)
        finally:
            self._end_transaction_scope(database, session)
        return Result(messages=["transaction rolled back"])

    def _end_transaction_scope(self, database: Database, session: Session) -> None:
        """Detach the session's transaction and drop its latch ownership.

        Runs even when commit/rollback raises (e.g. the transaction was
        already rolled back by a crash), so the latch can never leak from
        a session that went through BEGIN.
        """
        had_transaction = session.in_transaction
        session.in_transaction = False
        session.transaction = None
        if had_transaction and database.latch.owns_exclusive():
            database.latch.release_exclusive()

    def _dispatch_unlocked(
        self,
        statement: ast.Statement,
        merged: Dict[str, Any],
        database: Database,
        session: Session,
    ) -> Result:
        if isinstance(statement, ast.Select):
            return self._execute_select(statement, merged, database, session)
        if isinstance(statement, ast.UnionAll):
            return self._execute_union(statement, merged, database, session)
        if isinstance(statement, ast.Explain):
            planned = self.plan_select(statement.statement, database)
            from repro.common.schema import Column, Schema
            from repro.common.types import VARCHAR

            lines = planned.explain(costs=statement.costs).splitlines()
            schema = Schema([Column("plan", VARCHAR(None))])
            return Result(
                rows=[(line,) for line in lines],
                schema=schema,
                rowcount=len(lines),
            )
        if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
            return self._execute_dml(statement, merged, database, session)
        if isinstance(statement, ast.Execute):
            return self._execute_procedure_call(statement, merged, database, session)
        if isinstance(statement, ast.CreateTable):
            return execute_create_table(database, statement)
        if isinstance(statement, ast.CreateIndex):
            return execute_create_index(database, statement)
        if isinstance(statement, ast.CreateView):
            runner = lambda select: self._run_select_rows(select, merged, database, session)  # noqa: E731
            return execute_create_view(database, statement, select_runner=runner)
        if isinstance(statement, ast.CreateProcedure):
            return execute_create_procedure(database, statement)
        if isinstance(statement, ast.DropObject):
            return execute_drop(database, statement)
        if isinstance(statement, ast.Grant):
            return execute_grant(database, statement)
        if isinstance(statement, ast.Declare):
            value = None
            if statement.initial is not None:
                value = self._evaluate_scalar(statement.initial, merged, database, session)
            session.variables[statement.name] = value
            return Result()
        if isinstance(statement, ast.SetVariable):
            session.variables[statement.name] = self._evaluate_scalar(
                statement.value, merged, database, session
            )
            return Result()
        if isinstance(statement, ast.PrintStatement):
            value = self._evaluate_scalar(statement.value, merged, database, session)
            return Result(messages=[str(value)])
        raise ExecutionError(f"cannot execute {type(statement).__name__} at session level")

    # -- SELECT ---------------------------------------------------------------

    def plan_select(
        self,
        statement: ast.Select,
        database: Database,
        cache_key: Optional[Any] = None,
    ) -> PlannedStatement:
        """Plan a SELECT with version-checked caching.

        Dynamic plans make this cache effective for parameterized queries:
        one plan serves every parameter value, choosing its branch at run
        time via startup predicates instead of re-optimizing.

        The default cache key is the statement AST itself: AST nodes are
        frozen dataclasses with structural equality, so textually equal
        statements share a plan (and, unlike ``id()``, keys can never be
        recycled onto a different statement).
        """
        key = (database.name.lower(), cache_key if cache_key is not None else statement)
        version = database.version
        cached = self._plan_cache.get(key, valid=lambda e: e[0] == version)
        if cached is not None:
            return cached[1]
        started = time.perf_counter()
        with self.tracer.span("optimize"):
            planned = self.optimizer_for(database).plan_select(statement)
        self.metrics.histogram("optimizer.plan_seconds").observe(
            time.perf_counter() - started
        )
        if self.checked_plans:
            # Checked execution: raise before a structurally invalid plan
            # can be cached or run (repro.analysis.plancheck).
            from repro.analysis import check_plan

            check_plan(planned, database=database)
            self.metrics.counter("analysis.plans_checked").inc()
        self._plan_cache[key] = (version, planned)
        return planned

    def _execute_select(
        self,
        statement: ast.Select,
        params: Dict[str, Any],
        database: Database,
        session: Session,
    ) -> Result:
        self._check_select_permissions(statement, database, session)
        planned = self.plan_select(statement, database)
        ctx = self._make_context(params, database, session)
        profile = None
        if self.profile_statements or session.statistics_profile:
            from repro.obs.profile import profiled

            with profiled(planned.root) as profile:
                rows = self._run_plan(planned.root, ctx)
        else:
            rows = self._run_plan(planned.root, ctx)
        ctx.work.rows_returned = len(rows)
        self.total_work.merge(ctx.work)
        result = Result(rows=rows, schema=planned.schema, rowcount=len(rows))
        result.resultsets.append((planned.schema, rows))
        if profile is not None:
            result.profile = profile
            span = active_span()
            if span is not None:
                span.attributes["profile"] = profile.render()
        return result

    def _execute_union(
        self,
        statement: ast.UnionAll,
        params: Dict[str, Any],
        database: Database,
        session: Session,
    ) -> Result:
        """UNION ALL: concatenate branch results (bag semantics).

        Each branch routes independently — one side may come from a cached
        view while another ships to the backend.
        """
        rows: List[Tuple] = []
        schema = None
        for branch in statement.branches:
            result = self._execute_select(branch, params, database, session)
            if schema is None:
                schema = result.schema
            elif len(result.schema) != len(schema):
                raise ExecutionError(
                    "UNION ALL branches must produce the same number of columns"
                )
            else:
                self._check_union_types(schema, result.schema)
            rows.extend(result.rows)
        final = Result(rows=rows, schema=schema, rowcount=len(rows))
        final.resultsets.append((schema, rows))
        return final

    @staticmethod
    def _check_union_types(expected, actual) -> None:
        """Branches must be column-wise type-compatible, not just same arity.

        Compatibility follows the expression type system's ``common_type``
        widening rules (INT unions with FLOAT, VARCHAR with CHAR); a string
        column under a numeric one is an error, reported with the column.
        """
        from repro.common.types import common_type

        for position, (left, right) in enumerate(zip(expected, actual)):
            try:
                common_type(left.sql_type, right.sql_type)
            except TypeCheckError as exc:
                raise ExecutionError(
                    f"UNION ALL branches are not type-compatible at column "
                    f"{position + 1} ({left.name!r}): {left.sql_type} vs {right.sql_type}"
                ) from exc

    def _run_select_rows(self, select, params, database, session):
        result = self._execute_select(select, params, database, session)
        return result.rows, result.schema

    def run_subquery(
        self,
        select: ast.Select,
        params: Dict[str, Any],
        database: Database,
        session: Session,
    ) -> List[Tuple]:
        planned = self.plan_select(select, database)
        ctx = self._make_context(params, database, session)
        rows = self._run_plan(planned.root, ctx)
        self.total_work.merge(ctx.work)
        return rows

    def _run_plan(self, root: PhysicalOperator, ctx: ExecutionContext) -> List[Tuple]:
        """Drain a plan to a row list through :class:`BatchCursor`,
        recording the ``exec.*`` instruments."""
        rows: List[Tuple] = []
        cursor = BatchCursor(root, ctx)
        batches = 0
        while (chunk := cursor.next_batch()) is not None:
            batches += 1
            rows.extend(chunk)
            self._exec_batch_rows.observe(len(chunk))
        self._exec_batches.inc(batches)
        self._compiled_cache_hits.inc(ctx.compiled_cache_hits)
        self._compiled_cache_misses.inc(ctx.compiled_cache_misses)
        return rows

    def _make_context(
        self, params: Dict[str, Any], database: Database, session: Session
    ) -> ExecutionContext:
        ctx = ExecutionContext(
            database=database,
            params=params,
            linked_servers=self.linked_servers,
            clock=self.clock,
            tracer=self.tracer,
            batch_rows=self.batch_rows,
        )
        ctx.subquery_executor = lambda select, sub_params: self.run_subquery(
            select, sub_params, database, session
        )
        return ctx

    def _evaluate_scalar(self, expression, params, database, session):
        from repro.common.schema import Schema
        from repro.exec.expressions import ExpressionCompiler

        ctx = self._make_context(params, database, session)
        return ExpressionCompiler(Schema(())).compile(expression)((), ctx)

    # -- DML --------------------------------------------------------------------

    def _execute_dml(
        self,
        statement,
        params: Dict[str, Any],
        database: Database,
        session: Session,
    ) -> Result:
        target = statement.table.object_name
        permission = {
            ast.Insert: "INSERT",
            ast.Update: "UPDATE",
            ast.Delete: "DELETE",
        }[type(statement)]
        database.catalog.permissions.check(permission, target, session.principal)

        # Transparent forwarding: shadow tables and four-part names update
        # the real table on the owning server (paper §5: "all insert,
        # delete and update requests ... immediately converted to remote").
        server_name = statement.table.server
        if server_name is None and database.is_remote_table(target):
            server_name = database.backend_server
        if server_name is not None:
            return self._forward(server_name, self._strip_server_prefix(statement), params)

        ctx = self._make_context(params, database, session)
        autocommit = not session.in_transaction
        transaction = (
            database.transactions.begin()
            if autocommit
            else (session.transaction or database.transactions.current)
        )
        if transaction is None:
            raise TransactionError("no active transaction for DML")
        try:
            if isinstance(statement, ast.Insert):
                runner = lambda select: self._run_select_rows(  # noqa: E731
                    select, params, database, session
                )
                result = execute_insert(database, statement, ctx, transaction, runner)
            elif isinstance(statement, ast.Update):
                result = execute_update(database, statement, ctx, transaction)
            else:
                result = execute_delete(database, statement, ctx, transaction)
        except Exception:
            if autocommit:
                database.transactions.rollback(transaction)
            raise
        if autocommit:
            database.transactions.commit(transaction)
        self.total_work.merge(ctx.work)
        return result

    def _forward(self, server_name: str, statement, params: Dict[str, Any]) -> Result:
        """Ship a rewritten DML or ``EXEC`` statement to its owning server.

        The one forwarding call: the statement AST (frozen, hashable)
        keys a bounded cache of its SQL text, and the link executes that
        text by shared prepared handle — a repeated forwarded statement
        neither re-formats its text here nor re-parses it there; only the
        parameter values travel.
        """
        text = self._forward_cache.get(statement)
        if text is None:
            text = format_statement(statement)
            self._forward_cache[statement] = text
        result = self.linked_servers.get(server_name).execute_statement_text(text, params)
        self.total_work.inc("prepared_executions")
        return result

    @staticmethod
    def _strip_server_prefix(statement):
        """Remove the linked-server part from a DML target name."""
        table = statement.table
        if len(table.parts) >= 2:
            new_table = ast.TableName((table.parts[-1],), table.alias)
        else:
            new_table = table
        if isinstance(statement, ast.Insert):
            return ast.Insert(new_table, statement.columns, statement.rows, statement.select)
        if isinstance(statement, ast.Update):
            return ast.Update(new_table, statement.assignments, statement.where)
        return ast.Delete(new_table, statement.where)

    # -- procedures ---------------------------------------------------------------

    def _execute_procedure_call(
        self,
        statement: ast.Execute,
        params: Dict[str, Any],
        database: Database,
        session: Session,
    ) -> Result:
        """Run a procedure held locally, or forward the call (paper §5.2).

        A forwarded call evaluates its arguments here and ships
        ``EXEC proc @a = @a, ...`` — one text per call shape, whatever the
        values — with the evaluated values as parameters, through the same
        :meth:`_forward` as DML; positional arguments travel under
        reserved markers. No literal is formatted into the text, so the
        owning server parses and prepares it once.
        """
        name = statement.procedure[-1]
        explicit_server = statement.procedure[0] if len(statement.procedure) == 4 else None
        procedure = database.catalog.maybe_procedure(name)

        if procedure is not None and explicit_server is None:
            database.catalog.permissions.check("EXECUTE", name, session.principal)
            interpreter = ProcedureInterpreter(self, database, session)
            with self.tracer.span("procedure", procedure=name):
                result = interpreter.call(procedure, list(statement.arguments), params)
            return result

        server_name = explicit_server or database.backend_server
        if server_name is None:
            raise CatalogError(f"no procedure {name!r} and no backend server to forward to")
        if explicit_server is None:
            # The link executes as dbo, so the caller's right is checked
            # here, against the permissions shadowed from the backend.
            database.catalog.permissions.check("EXECUTE", name, session.principal)
        arguments = []
        values: Dict[str, Any] = {}
        for position, (arg_name, expression) in enumerate(statement.arguments, 1):
            marker = arg_name or f"{RESERVED_PREFIX}{position}"
            values[marker] = self._evaluate_scalar(expression, params, database, session)
            arguments.append((arg_name, ast.Parameter(marker)))
        return self._forward(server_name, ast.Execute((name,), tuple(arguments)), values)

    # -- linked-server endpoint -------------------------------------------------

    def execute_remote_sql(self, sql: str, params: Optional[Dict[str, Any]] = None) -> Result:
        """Entry point used by other servers' RemoteQueryOps and DML
        forwarding. The shipped SQL is re-parsed and re-optimized here,
        as the paper notes must happen when plans cannot be shipped."""
        return self.execute(sql, params=params)

    def prepare_sql(self, sql: str, database: Optional[str] = None) -> int:
        """Prepare a statement batch for by-handle execution (paper §4.3).

        Parses once (the literal-lifted template, keeping the lifted
        values with the handle) and pins the result to the current schema
        version; returns an opaque handle id the client executes with
        parameters.
        This is what lets a parameterized remote query ship its text a
        single time instead of once per execution.
        """
        self._check_available()
        self._admit("prepare")
        target = self.database(database)
        statements, lifted = self._parse_sql(sql, target)
        handle = PreparedStatement(
            handle_id=next(self._prepared_ids),
            sql=sql,
            database_key=target.name,
            statements=statements,
            lifted=lifted,
            version=target.version,
        )
        self._prepared[handle.handle_id] = handle
        return handle.handle_id

    def execute_prepared(
        self,
        handle_id: int,
        params: Optional[Dict[str, Any]] = None,
        session: Optional[Session] = None,
    ) -> Result:
        """Execute a previously prepared statement batch by handle.

        ``session`` carries the caller's principal and transaction (a
        wire connection's); linked servers pass none and run as ``dbo``
        on a fresh autocommit session.

        A schema-version bump since prepare (or the last execution)
        triggers a transparent re-prepare: re-parse the pinned text and
        let the version-checked plan cache re-plan against the new
        schema. Unknown handles raise :class:`PreparedStatementError`
        so the client link can re-prepare from its own text copy.
        """
        self._check_available()
        self._admit("prepared execution")
        handle = self._prepared.get(handle_id)
        if handle is None:
            raise PreparedStatementError(
                f"no prepared statement with handle {handle_id} on server {self.name!r}"
            )
        target = self.database(handle.database_key)
        with self.tracer.span("prepared", handle=handle_id):
            if handle.version != target.version:
                handle.statements, handle.lifted = self._parse_sql(handle.sql, target)
                handle.version = target.version
                handle.reprepares += 1
            self.total_work.inc("prepared_executions")
            return self._run_batch(
                handle.sql, handle.statements, handle.lifted, params, session or Session(), target
            )

    def close_prepared(self, handle_id: int) -> None:
        """Drop a prepared statement (client-side handle going away)."""
        self._prepared.pop(handle_id, None)

    def prepared_statement(self, handle_id: int) -> PreparedStatement:
        """Introspection: the server-side half of a handle (tests, tools)."""
        handle = self._prepared.get(handle_id)
        if handle is None:
            raise PreparedStatementError(
                f"no prepared statement with handle {handle_id} on server {self.name!r}"
            )
        return handle

    def statement_cache_stats(self) -> Dict[str, Any]:
        """Fast-path observability: cache counters plus raw parse count."""
        return {
            "parses": self.parses,
            "parse_cache": self._parse_cache.stats.snapshot(),
            "plan_cache": self._plan_cache.stats.snapshot(),
            "prepared_statements": len(self._prepared),
            "parse_cache_hits": self.total_work.parse_cache_hits,
            "prepared_executions": self.total_work.prepared_executions,
            "round_trips_saved": self.total_work.round_trips_saved,
        }

    # -- permissions ---------------------------------------------------------------

    def _check_select_permissions(
        self, statement: ast.Select, database: Database, session: Session
    ) -> None:
        if session.principal.lower() == "dbo":
            return

        def visit_ref(ref: Optional[ast.TableRef]) -> None:
            if ref is None:
                return
            if isinstance(ref, ast.JoinRef):
                visit_ref(ref.left)
                visit_ref(ref.right)
            elif isinstance(ref, ast.DerivedTable):
                visit_select(ref.select)
            elif isinstance(ref, ast.TableName):
                database.catalog.permissions.check(
                    "SELECT", ref.object_name, session.principal
                )

        def visit_select(select: ast.Select) -> None:
            visit_ref(select.from_clause)

        visit_select(statement)

    def reset_work(self) -> None:
        """Zero the cumulative work counters (between calibration runs).

        Also resets the parse-cache and plan-cache hit/miss statistics and
        the raw parse count, so a calibration run measured after a warm-up
        starts from zero on *every* counter — previously only
        ``total_work`` was zeroed, leaving cache hit rates polluted by
        warm-up traffic. Cache *contents* are kept (warm caches are the
        steady state being measured); only the statistics reset.
        """
        self.total_work.reset()
        self.statements_executed = 0
        self.parses = 0
        for cache in (self._parse_cache, self._plan_cache, self._forward_cache):
            stats = cache.stats
            stats.hits = 0
            stats.misses = 0
            stats.evictions = 0
            stats.invalidations = 0
        self.metrics.reset(prefix="engine.")
        self.metrics.reset(prefix="optimizer.")

    def __repr__(self) -> str:
        return f"<Server {self.name} databases={list(self.databases)}>"
