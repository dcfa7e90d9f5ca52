"""The server: statement dispatch, plan cache, linked-server endpoint.

One :class:`Server` instance models one SQL Server. It accepts SQL text
(or pre-parsed ASTs), binds each statement once per schema version
(:mod:`repro.engine.binding`: lock plan, named objects, where it runs),
plans SELECTs through the MTCache-extended optimizer with a
version-checked plan cache, executes DML locally or forwards it to the
backend (the transparent-update rule), runs stored procedures locally or
forwards the call, and serves as a linked server for other instances'
remote subexpressions.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.catalog.permissions import OWNER
from repro.common.clock import SimulatedClock
from repro.common.lru import LRUCache
from repro.common.types import common_type
from repro.engine.binding import BoundBatch, BoundStatement, bind_statement
from repro.engine.database import Database
from repro.engine.ddl import (
    execute_create_index,
    execute_create_procedure,
    execute_create_table,
    execute_create_view,
    execute_drop,
    execute_grant,
)
from repro.engine.dml import compile_dml
from repro.engine.locks import LockMode
from repro.engine.procedures import run_procedure
from repro.engine.results import Result
from repro.engine.session import Session
from repro.errors import (
    CatalogError,
    DeadlineExceededError,
    ExecutionError,
    LexError,
    ParseError,
    PartialEffectError,
    PreparedStatementError,
    ReproError,
    ServerUnavailableError,
    TransactionError,
    TransactionLostError,
    TypeCheckError,
    invites_rerun,
)
from repro.exec.context import (
    DEFAULT_BATCH_ROWS,
    ExecutionContext,
    WorkCounters,
)
from repro.exec.expressions import evaluate
from repro.exec.operators import BatchCursor, PhysicalOperator
from repro.obs.metrics import ROW_BUCKETS, CounterGroupView, MetricsRegistry
from repro.obs.tracing import Tracer, active_span
from repro.optimizer.cost import CostModel
from repro.optimizer.planner import Optimizer, PlannedStatement
from repro.resilience.deadline import current_deadline
from repro.sql import ast, lift_literals, overlay, parse_statements

#: The work-counter field names, taken from the dataclass so the
#: registry-backed facade and the per-execution accumulator never drift.
WORK_FIELDS = tuple(field.name for field in dataclasses.fields(WorkCounters))

#: Capacity of the SQL-text -> statements and statement -> plan LRUs.
STATEMENT_CACHE_SIZE = 512

#: The statement log's records for one parse-cache hit and one execution
#: by prepared handle (:class:`~repro.obs.metrics.StatementLog`).
_PARSE_CACHE_HIT = ("parse_cache_hits", 1)
_PREPARED_EXECUTION = ("prepared_executions", 1)


class PreparedStatement:
    """The server-side half of the prepare/execute protocol (paper §4.3).

    Holds the statement text plus its parsed and bound form — the batch of
    the text's literal-lifted template and the values lifted out of it —
    pinned to the schema version it was prepared under. When the version
    moves (DDL on the target database), the next execution transparently
    re-prepares: the text is re-parsed, re-bound and re-planned against
    the new schema.
    """

    __slots__ = ("handle_id", "sql", "database_key", "batch", "lifted", "reprepares")

    def __init__(
        self,
        handle_id: int,
        sql: str,
        database_key: str,
        batch: BoundBatch,
        lifted: Dict[str, Any],
    ):
        self.handle_id = handle_id
        self.sql = sql
        self.database_key = database_key
        self.batch = batch
        self.lifted = lifted
        self.reprepares = 0

    @property
    def statements(self) -> List[ast.Statement]:
        return self.batch.statements

    def __repr__(self) -> str:
        text = self.sql if len(self.sql) <= 40 else self.sql[:37] + "..."
        return f"<PreparedStatement #{self.handle_id} {text!r} v{self.batch.version}>"


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
        # metrics exports (the statement log folds into them).
        self.batch_rows = batch_rows
        self.metrics.counter("exec.batches")
        self.metrics.histogram("exec.batch_rows", ROW_BUCKETS)
        self.metrics.counter("exec.compiled_cache_hits")
        self.metrics.counter("exec.compiled_cache_misses")
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
        # literal-lifted SQL template -> parsed *and bound* batch, and
        # (database, statement) -> plan, the second level a bound
        # statement's plan slot is filled from. No literal reaches either
        # key.
        self._parse_cache: LRUCache = LRUCache(STATEMENT_CACHE_SIZE)
        self._plan_cache: LRUCache = LRUCache(STATEMENT_CACHE_SIZE)
        #: Statements bound (a parse-cache entry or prepared handle built
        #: or rebuilt, a stale binding redone, a raw AST executed): flat
        #: once a workload is warm.
        self._statement_binds = self.metrics.counter("engine.statement_binds")
        # Prepared statements this server holds for its clients
        # (linked servers executing by handle).
        self._prepared: Dict[int, PreparedStatement] = {}
        self._prepared_ids = itertools.count(1)
        #: How many times the lexer/parser actually ran (parse-cache
        #: misses). Benchmarks read deltas of this.
        self.parses = 0
        # Cumulative work executed on this server (simulator calibration).
        # The counters live in the metrics registry and ``total_work`` is
        # an attribute-compatible facade over them; per-execution
        # accumulation uses the plain dataclass. Every statement-path
        # metric goes through the facade's write-behind log: one lock-free
        # append per site.
        self.total_work = CounterGroupView(self.metrics, "work", WORK_FIELDS)
        self._log = self.total_work.log

    # -- crash / restart (fault injection) -----------------------------------

    def crash(self) -> None:
        """Simulate a process crash: volatile state is lost, durable state
        (tables, the replication watermark held by subscriptions) is kept.

        Prepared-statement handles are the canonical volatile state —
        clearing them makes remote links holding handle ids go through
        their ``PreparedStatementError`` re-prepare path after restart.
        Any in-flight transaction is rolled back, modeling the loss of
        uncommitted work, and — the one place a transaction scope ends
        without its session — every explicit transaction's latch hold is
        released, whoever held it, and its session marked ``lost``
        (answered by :meth:`_answer_lost`; nobody has anything to clean up).
        """
        self.available = False
        self.crashes += 1
        self._prepared.clear()
        for database in self.databases.values():
            for transaction in database.transactions.active_transactions():
                database.transactions.rollback(transaction)
            session = database.latch.holder
            if session is not None:
                session.lost = True  # before the hold ends: see _dispatch_statement
                database.latch.end_hold()
        self.metrics.counter("faults.server_crashes").inc()

    def restart(self) -> None:
        """Bring a crashed server back (cold caches, empty prepared set)."""
        for database in self.databases.values():
            assert database.latch.holder is None, f"{database!r} latch outlived the crash"
        self.available = True
        self.metrics.counter("faults.server_restarts").inc()

    def healthy(self) -> bool:
        """Health probe used by pool checkout (parallels CacheServer.healthy)."""
        return self.available

    def _admit(self, what: str, session: Optional[Session] = None) -> None:
        """The entry points' gate: availability, deadline, then admission.

        A crashed server raises ``ServerUnavailableError`` so callers can
        retry or reroute. The deadline check comes before admission — a
        request whose budget is already gone must not consume an admission
        token (it would be thrown away after the work anyway). A session
        inside an explicit transaction holds the database: shedding its
        statements — its ``ROLLBACK`` above all — only keeps everyone else
        out for longer.
        """
        if not self.available:
            raise ServerUnavailableError(f"server {self.name!r} is down")
        deadline = current_deadline()
        if deadline is not None and deadline.expired():
            self.metrics.counter("overload.deadline_misses").inc()
            raise DeadlineExceededError(
                f"deadline exceeded before {what} on server {self.name!r}"
            )
        if self.admission is not None and not (session is not None and session.in_transaction):
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
        """Execute a SQL batch as ``session`` (none: ``dbo``, on a fresh
        autocommit session); returns the last statement's result."""
        session = session or Session()
        if session.lost:
            target = self.database(database or session.database)
            return self._answer_lost(session, self._parse_sql(sql, target)[0].bound)
        self._admit("statement batch", session)
        target = self.database(database or session.database)
        with self.tracer.child_span("batch", sql=sql):
            batch, lifted = self._parse_sql(sql, target)
            return self._run_batch(sql, batch, lifted, params, session, target)

    def parsed(self, sql: str, database: Optional[str] = None) -> List[ast.Statement]:
        """The batch's statements, through the same literal-lifting,
        version-checked parse cache every execution uses."""
        return self._parse_sql(sql, self.database(database))[0].statements

    def bind(self, statement: ast.Statement, database: Database) -> BoundStatement:
        """The one bind step (:mod:`repro.engine.binding`), counted.

        Runs where ``database.version`` already invalidates — when a
        parse-cache entry or a prepared handle is (re)built — plus the two
        cold paths: a binding the version has overtaken, and a raw AST
        handed to :meth:`execute_statement`.
        """
        self._statement_binds.inc()
        return bind_statement(statement, database)

    def _bind_batch(self, statements: List[ast.Statement], database: Database) -> BoundBatch:
        version = database.version
        return BoundBatch(
            version, statements, [self.bind(statement, database) for statement in statements]
        )

    def _parse_sql(self, sql: str, database: Database) -> Tuple[BoundBatch, Dict[str, Any]]:
        """Parse and bind a batch through the version-checked template cache.

        Literals are lifted to reserved parameter markers first
        (:func:`repro.sql.lift_literals`), so the key — and, through the
        frozen AST, every plan-cache and remote-handle key derived from
        it — is the text's template: ``WHERE cid = 1`` and
        ``WHERE cid = 2`` are one entry, one binding, one dynamic plan.
        Returns the template's bound batch and the lifted values it runs
        under.

        Keys are interned so repeated batches compare by pointer and skip
        the lexer/parser — and the binder — entirely. AST nodes are
        frozen, so the cached batch is safe to re-execute. A template that
        does not parse is parsed again as the text the client sent (cold
        path), so a syntax error's line and column are the client's own.
        """
        template, lifted = lift_literals(sql)
        key = (database.name.lower(), sys.intern(template))
        version = database.version
        batch = self._parse_cache.get(key, valid=lambda entry: entry.version == version)
        if batch is not None:
            self._log.append(_PARSE_CACHE_HIT)
            return batch, lifted
        self.parses += 1
        try:
            statements = parse_statements(template)
        except (LexError, ParseError):
            if not lifted:
                raise
            return self._bind_batch(parse_statements(sql), database), {}
        batch = self._bind_batch(statements, database)
        self._parse_cache[key] = batch
        return batch, lifted

    def _run_batch(
        self,
        sql: str,
        batch: BoundBatch,
        lifted: Dict[str, Any],
        params: Optional[Dict[str, Any]],
        session: Session,
        database: Database,
    ) -> Result:
        """Run a bound batch under the caller's parameters laid over the
        lifted ones; returns the last statement's result, stamped with the
        batch's ``read_only`` bit. A caller whose own names use the
        reserved prefix gets its text run as written.

        The one place a call's failure is classified against its effects:
        an error some layer would re-run the call for, raised after a
        statement of it committed (``session.commits`` moved), is
        re-raised as the non-transient :class:`PartialEffectError`.
        """
        if lifted:
            merged = overlay(lifted, params)
            if merged is None:
                batch = self._bind_batch(parse_statements(sql), database)
            else:
                params = merged
        commits = session.commits
        result = None
        try:
            for bound in batch.bound:
                result = self.execute_bound(bound, params, session, database)
        except ReproError as exc:
            if session.commits == commits or not invites_rerun(exc):
                raise
            raise PartialEffectError(
                f"{type(exc).__name__} on server {self.name!r} after an earlier "
                f"statement of the call committed; it must not be re-run: {exc}"
            ) from exc
        if result is None:
            result = Result()
        result.read_only = batch.read_only
        return result

    def execute_statement(
        self,
        statement: ast.Statement,
        params: Optional[Dict[str, Any]] = None,
        session: Optional[Session] = None,
        database: Optional[Database] = None,
    ) -> Result:
        """Execute a raw AST: bound on the spot (the cold path — texts,
        handles and procedure bodies carry their bindings)."""
        session = session or Session()
        database = database or self.database(session.database)
        return self.execute_bound(self.bind(statement, database), params, session, database)

    def execute_bound(
        self,
        bound: BoundStatement,
        params: Optional[Dict[str, Any]],
        session: Session,
        database: Database,
    ) -> Result:
        """Execute one bound statement of a batch as ``session``.

        Its parameters are the caller's laid over the session's variables
        (one copy, none without variables), and it runs in one execution
        context: its plans, subqueries and, for an ``EXEC``, the
        procedure body. Its work, chunk sizes, kernel-memo counts and
        seconds — a failed statement's included — are one log record.
        """
        variables = session.variables
        if variables:
            params = {**variables, **params} if params else variables
        ctx = self._make_context(params, database, session)
        checked = session.principal.lower() != OWNER
        tracer = ctx.tracer
        started = time.perf_counter()
        try:
            if tracer is None:
                return self._dispatch(bound, ctx, checked)
            with tracer.child_span("statement", statement=bound.kind.__name__):
                return self._dispatch(bound, ctx, checked)
        finally:
            elapsed = time.perf_counter() - started
            hits, misses = ctx.compiled_cache_hits, ctx.compiled_cache_misses
            self._log.append((ctx.work, ctx.chunk_sizes, hits, misses, elapsed))

    def run_in_call(self, bound: BoundStatement, ctx: ExecutionContext, select: bool = False):
        """One statement of a procedure body, in the call's context (whose
        parameters are the frame): a ``SELECT``'s ``(schema, rows)`` when
        ``select``, else its result.

        It runs as ``dbo`` (ownership chaining: once the caller holds
        EXECUTE, embedded statements do not re-check the caller's table
        permissions) in the caller's transaction, under its own lock plan.
        Its work lands in the context, so in the ``EXEC``'s log record; it
        logs only its seconds."""
        ctx.forget_subqueries()
        runner = Server._select_rows if select else None
        tracer = ctx.tracer
        started = time.perf_counter()
        try:
            if tracer is None:
                return self._dispatch(bound, ctx, False, runner)
            with tracer.child_span("statement", statement=bound.kind.__name__):
                return self._dispatch(bound, ctx, False, runner)
        finally:
            self._log.append(time.perf_counter() - started)

    @property
    def statements_executed(self) -> int:
        """Statements executed since the last :meth:`reset_work`: the count
        of ``engine.statement_seconds``, exact under concurrent writers."""
        self._log.fold()
        return self._statement_seconds.count

    def _dispatch(
        self, bound: BoundStatement, ctx: ExecutionContext, checked: bool, runner=None
    ) -> Any:
        """Check permissions (``checked``: the session is not ``dbo``),
        acquire the bound lock plan, run ``runner`` (by default the
        statement kind's).

        Everything decided here was decided when the statement was bound;
        what is left is what varies per execution. The permission check
        runs live over the bound object list (``GRANT`` does not bump the
        schema version). The locking hierarchy (see
        :mod:`repro.engine.locks`): an explicit transaction's session
        holds the database latch for the transaction's whole span, and
        each of its statements runs under that hold, lent to the calling
        thread for the statement (so any thread may carry the next one);
        transaction control, like the other statements that touch no
        shared state, has no lock plan; DDL takes the latch exclusive for
        one statement; everything else takes it shared plus sorted
        per-table locks. A thread already holding the latch exclusively —
        a statement of an explicit transaction, or a procedure body's
        statement under one — skips both levels.

        A binding the schema version has overtaken is redone here, for
        this execution (its holder — parse-cache entry, prepared handle,
        procedure body — is rebuilt by its own version check). The
        version is compared again once the latch is held: DDL runs under
        the exclusive latch, so a binding current inside the latch stays
        current while the statement runs, plan slot included.
        """
        if runner is None:
            runner = _RUNNERS.get(bound.kind)
            if runner is None:
                raise ExecutionError(f"cannot execute {bound.kind.__name__} at session level")
        database = ctx.database
        session = ctx.session
        latch = database.latch
        while True:
            if bound.version != database.version:
                bound = self.bind(bound.statement, database)
            if checked and bound.objects:
                check = database.catalog.permissions.check
                for permission, name in bound.objects:
                    check(permission, name, session.principal)
            if latch.owns_exclusive():
                return runner(self, bound, ctx)
            if session.home is database:
                # The session's transaction holds this latch (so no DDL
                # can have slipped in); a crash marks the session lost,
                # then ends its hold.
                with latch.held_by(session) as held:
                    if session.lost or not held:
                        return self._answer_lost(session, (bound,))
                    return runner(self, bound, ctx)
            plan = bound.lock_plan
            if plan is None:
                return runner(self, bound, ctx)
            if plan.latch is LockMode.EXCLUSIVE:
                with latch.exclusive():
                    if bound.version == database.version:
                        return runner(self, bound, ctx)
            else:
                with latch.shared():
                    if bound.version == database.version:
                        with bound.table_locks:
                            return runner(self, bound, ctx)
            # DDL got in between the version check and the latch.

    # -- transaction control ----------------------------------------------

    def _begin_transaction(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        """BEGIN TRANSACTION: coarse 2PL — the session owns the database.

        The latch is taken exclusively *before* the transaction starts and
        parked on the session until COMMIT/ROLLBACK (or a crash of this
        server), so everything the transaction reads or writes is isolated
        without finer-grained locks, and concurrent sessions queue behind
        it. This database is the session's ``home`` from here on.
        """
        database = ctx.database
        session = ctx.session
        if session.home is not None:
            raise TransactionError("a transaction is already active")
        with database.latch.exclusive():
            session.transaction = database.transactions.begin()
            session.home = database
            database.latch.hold_for(session)
        return Result(messages=["transaction started"])

    def _end_transaction(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        """COMMIT / ROLLBACK: end the transaction, then — even when that
        raises — detach it from the session and end the session's hold."""
        database = ctx.database
        session = ctx.session
        commit = bound.kind is ast.CommitTransaction
        if session.home is not database:
            verb = "commit" if commit else "roll back"
            raise TransactionError(f"no active transaction to {verb}")
        transactions = database.transactions
        try:
            (transactions.commit if commit else transactions.rollback)(session.transaction)
        finally:
            session.transaction = session.home = None
            database.latch.end_hold()
        if not commit:
            return Result(messages=["transaction rolled back"])
        session.commits += 1
        return Result(messages=["transaction committed"])

    def _answer_lost(self, session: Session, batch) -> Result:
        """The one answer to a session whose transaction a crash ended.

        Its transaction state is cleared; ``ROLLBACK`` gets what it asked
        for (``close()``, pool release and disconnect cleanup need no
        special case), anything else :class:`TransactionLostError`, once.
        """
        session.transaction = session.home = None
        session.lost = False
        if batch and all(bound.kind is ast.RollbackTransaction for bound in batch):
            return Result(messages=["transaction rolled back"])
        raise TransactionLostError(
            f"server {self.name!r} crashed inside this session's transaction; "
            "it was rolled back, nothing of it is committed"
        )

    # -- statements without a plan of their own ------------------------------

    def _execute_explain(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        from repro.common.schema import Column, Schema
        from repro.common.types import VARCHAR

        target = bound.children[0]
        planned = self.plan_select(target.statement, ctx.database, bound=target)
        lines = planned.explain(costs=bound.statement.costs).splitlines()
        schema = Schema([Column("plan", VARCHAR(None))])
        return Result(rows=[(line,) for line in lines], schema=schema, rowcount=len(lines))

    def _execute_ddl(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        result = _DDL[bound.kind](ctx.database, bound.statement)
        ctx.session.commits += 1
        return result

    def _execute_create_view(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        runner = self._source_runner(bound, ctx)
        result = execute_create_view(ctx.database, bound.statement, select_runner=runner)
        ctx.session.commits += 1
        return result

    def _execute_variable(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        """DECLARE / SET / PRINT at session level."""
        value = None
        if bound.scalar is not None:
            value = evaluate(bound.scalar, ctx)
        if bound.kind is ast.PrintStatement:
            return Result(messages=[str(value)])
        ctx.session.variables[bound.statement.name] = value
        return Result()

    # -- SELECT ---------------------------------------------------------------

    def plan_select(
        self,
        statement: ast.Select,
        database: Database,
        cache_key: Optional[Any] = None,
        bound: Optional[BoundStatement] = None,
    ) -> PlannedStatement:
        """The SELECT's plan: a slot read, a cache lookup, or the optimizer.

        Dynamic plans make reuse effective for parameterized queries: one
        plan serves every parameter value, choosing its branch at run time
        via startup predicates instead of re-optimizing.

        Every SELECT execution calls this. Given the statement's binding
        (``bound``, which the dispatcher has validated against the schema
        version), the plan is read from its slot — no hashing, no lookup —
        and counted as a plan-cache hit. The slot is filled from the
        structural plan cache, consulted at bind time: its default key is
        the statement AST itself — AST nodes are frozen dataclasses with
        structural equality, so texts that differ but parse equal share a
        plan (and, unlike ``id()``, keys can never be recycled onto a
        different statement). A caller's own ``cache_key`` replaces the
        structural key (a probe forcing a cold plan).
        """
        if bound is not None and bound.planned is not None:
            self._plan_cache.count_hit()
            return bound.planned
        key = (database.name.lower(), cache_key if cache_key is not None else statement)
        version = database.version
        cached = self._plan_cache.get(key, valid=lambda e: e[0] == version)
        if cached is not None:
            planned = cached[1]
        else:
            started = time.perf_counter()
            with self.tracer.child_span("optimize"):
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
        if bound is not None and bound.version == version:
            bound.planned = planned
        return planned

    def _execute_select(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        planned = self.plan_select(bound.statement, ctx.database, bound=bound)
        if self.profile_statements or ctx.session.statistics_profile:
            rows, profile = self._profiled_drain(planned.root, ctx)
        else:
            rows, profile = self._drain(planned.root, ctx), None
        ctx.work.rows_returned += len(rows)
        result = Result(rows=rows, schema=planned.schema, rowcount=len(rows), profile=profile)
        result.resultsets.append((planned.schema, rows))
        return result

    def _select_rows(
        self, bound: BoundStatement, ctx: ExecutionContext
    ) -> Tuple[Any, List[Tuple]]:
        """A procedure body's SELECT: ``(schema, rows)``, no result of its
        own (profiled only when the server profiles every statement)."""
        planned = self.plan_select(bound.statement, ctx.database, bound=bound)
        if self.profile_statements:
            rows = self._profiled_drain(planned.root, ctx)[0]
        else:
            rows = self._drain(planned.root, ctx)
        ctx.work.rows_returned += len(rows)
        return planned.schema, rows

    def _execute_union(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        """UNION ALL: concatenate branch results (bag semantics).

        Each branch routes independently — one side may come from a cached
        view while another ships to the backend.
        """
        rows: List[Tuple] = []
        schema = None
        for branch in bound.children:
            result = self._execute_select(branch, ctx)
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
        for position, (left, right) in enumerate(zip(expected, actual)):
            try:
                common_type(left.sql_type, right.sql_type)
            except TypeCheckError as exc:
                raise ExecutionError(
                    f"UNION ALL branches are not type-compatible at column "
                    f"{position + 1} ({left.name!r}): {left.sql_type} vs {right.sql_type}"
                ) from exc

    def run_subquery(self, select: ast.Select, ctx: ExecutionContext) -> List[Tuple]:
        """Plan (through the structural plan cache) and run a subquery of
        the statement running in ``ctx``, in that context: its binding
        already covered the subquery's locks and permissions."""
        return self._drain(self.plan_select(select, ctx.database).root, ctx)

    def _drain(self, root: PhysicalOperator, ctx: ExecutionContext) -> List[Tuple]:
        """Drain a plan to a row list through :class:`BatchCursor`; each
        chunk's size goes to the context (the statement's log record)."""
        rows: List[Tuple] = []
        sizes = ctx.chunk_sizes
        cursor = BatchCursor(root, ctx)
        while (chunk := cursor.next_batch()) is not None:
            rows.extend(chunk)
            sizes.append(len(chunk))
        return rows

    def _profiled_drain(self, root: PhysicalOperator, ctx: ExecutionContext):
        """:meth:`_drain` under a per-operator profile, rendered onto the
        statement's span: ``(rows, profile)``."""
        from repro.obs.profile import profiled

        with profiled(root) as profile:
            rows = self._drain(root, ctx)
        span = active_span()
        if span is not None:
            span.attributes["profile"] = profile.render()
        return rows, profile

    def _make_context(
        self, params: Optional[Dict[str, Any]], database: Database, session: Session
    ) -> ExecutionContext:
        """A statement's context. It carries the tracer only inside a
        requested trace: outside one, no span of the statement can open,
        so its sites skip the tracer altogether."""
        return ExecutionContext(
            database,
            params,
            self.linked_servers,
            self.clock,
            self.run_subquery,
            self.tracer if active_span() is not None else None,
            self.batch_rows,
            session,
        )

    # -- DML --------------------------------------------------------------------

    def _execute_dml(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        if bound.forward is not None:
            return self._forward(bound, ctx.params, ctx)
        database = ctx.database
        run = bound.planned
        if run is None:
            # Compiled at the first execution, not when bound: the target
            # may be created by an earlier statement of the same batch.
            run = bound.planned = compile_dml(database, bound.statement)
        # The session's explicit transaction, when it lives on this
        # database (a statement a cache re-runs on the backend does not
        # bring the cache's transaction along).
        session = ctx.session
        autocommit = session.home is not database
        transaction = database.transactions.begin() if autocommit else session.transaction
        try:
            result = run(ctx, transaction, self._source_runner(bound, ctx))
        except Exception:
            if autocommit:
                database.transactions.rollback(transaction)
            raise
        if autocommit:
            database.transactions.commit(transaction)
            session.commits += 1
        return result

    def _source_runner(self, bound: BoundStatement, ctx: ExecutionContext):
        """``() -> (rows, schema)`` of the SELECT a statement is fed from
        (an INSERT's source, a materialized view's definition), or None."""
        if not bound.children:
            return None

        def run() -> Tuple[List[Tuple], Any]:
            result = self._execute_select(bound.children[0], ctx)
            return result.rows, result.schema

        return run

    def _forward(
        self, bound: BoundStatement, params: Dict[str, Any], ctx: ExecutionContext
    ) -> Result:
        """Ship a DML or ``EXEC`` statement to its owning server.

        The one forwarding call: the binding holds the owning server and
        the rewritten statement's text, and the link executes that text by
        shared prepared handle — a repeated forwarded statement neither
        re-formats its text here nor re-parses it there; only the
        parameter values travel. Once it returns, the owning server has
        committed it (forwarded statements run there in autocommit).
        """
        server_name, text = bound.forward
        result = self.linked_servers.get(server_name).execute_statement_text(text, params)
        ctx.session.commits += 1
        ctx.work.prepared_executions += 1
        return result

    # -- procedures ---------------------------------------------------------------

    def _execute_procedure_call(self, bound: BoundStatement, ctx: ExecutionContext) -> Result:
        """Run a procedure held locally, or forward the call (paper §5.2).

        Which of the two — and the procedure's bound body, or the
        forwarded text — was settled when the ``EXEC`` was bound
        (:func:`repro.engine.binding.bind_statement`). A local body runs
        in this statement's context (:func:`run_procedure`); a forwarded
        call evaluates its arguments here and ships them as parameters
        through the same :meth:`_forward` as DML.
        """
        if bound.procedure is not None:
            tracer = ctx.tracer
            if tracer is None:
                return run_procedure(self, bound.procedure, bound.arguments, ctx)
            with tracer.child_span("procedure", procedure=bound.statement.procedure[-1]):
                return run_procedure(self, bound.procedure, bound.arguments, ctx)
        if bound.forward is None:
            name = bound.statement.procedure[-1]
            raise CatalogError(f"no procedure {name!r} and no backend server to forward to")
        values = {marker: evaluate(value, ctx) for marker, value in bound.arguments}
        return self._forward(bound, values, ctx)

    # -- linked-server endpoint -------------------------------------------------

    def execute_remote_sql(self, sql: str, params: Optional[Dict[str, Any]] = None) -> Result:
        """Entry point used by other servers' RemoteQueryOps and DML
        forwarding. The shipped SQL is re-parsed and re-optimized here,
        as the paper notes must happen when plans cannot be shipped."""
        return self.execute(sql, params=params)

    def prepare_sql(self, sql: str, database: Optional[str] = None) -> int:
        """Prepare a statement batch for by-handle execution (paper §4.3).

        Parses and binds once (the literal-lifted template, keeping the
        lifted values with the handle) and pins the result to the current
        schema version; returns an opaque handle id the client executes
        with parameters.
        This is what lets a parameterized remote query ship its text a
        single time instead of once per execution.
        """
        self._admit("prepare")
        target = self.database(database)
        batch, lifted = self._parse_sql(sql, target)
        handle = PreparedStatement(
            handle_id=next(self._prepared_ids),
            sql=sql,
            database_key=target.name,
            batch=batch,
            lifted=lifted,
        )
        self._prepared[handle.handle_id] = handle
        return handle.handle_id

    def execute_prepared(self, handle_id: int, params: Optional[Dict[str, Any]] = None) -> Result:
        """Execute a previously prepared statement batch by handle.

        The caller is a linked server: the batch runs as ``dbo`` on a
        fresh autocommit session (client requests arrive as texts through
        :meth:`execute`).

        A schema-version bump since prepare (or the last execution)
        triggers a transparent re-prepare: re-parse and re-bind the pinned
        text and let the version-checked plan cache re-plan against the
        new schema. Unknown handles raise :class:`PreparedStatementError`
        so the client link can re-prepare from its own text copy.
        """
        self._admit("prepared execution")
        handle = self._prepared.get(handle_id)
        if handle is None:
            raise PreparedStatementError(
                f"no prepared statement with handle {handle_id} on server {self.name!r}"
            )
        target = self.database(handle.database_key)
        with self.tracer.child_span("prepared", handle=handle_id):
            if handle.batch.version != target.version:
                handle.batch, handle.lifted = self._parse_sql(handle.sql, target)
                handle.reprepares += 1
            self._log.append(_PREPARED_EXECUTION)
            return self._run_batch(
                handle.sql, handle.batch, handle.lifted, params, Session(), target
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
        self.parses = 0
        for cache in (self._parse_cache, self._plan_cache):
            stats = cache.stats
            stats.hits = 0
            stats.misses = 0
            stats.evictions = 0
            stats.invalidations = 0
        self.metrics.reset(prefix="engine.")
        self.metrics.reset(prefix="optimizer.")

    def __repr__(self) -> str:
        return f"<Server {self.name} databases={list(self.databases)}>"


_DDL = {
    ast.CreateTable: execute_create_table,
    ast.CreateIndex: execute_create_index,
    ast.CreateProcedure: execute_create_procedure,
    ast.DropObject: execute_drop,
    ast.Grant: execute_grant,
}

#: Statement class -> the method that runs it once its locks are held: the
#: dispatch target, fixed by ``BoundStatement.kind`` when the statement is
#: bound. A class missing here cannot be executed at session level.
_RUNNERS = {
    ast.BeginTransaction: Server._begin_transaction,
    ast.CommitTransaction: Server._end_transaction,
    ast.RollbackTransaction: Server._end_transaction,
    ast.Select: Server._execute_select,
    ast.UnionAll: Server._execute_union,
    ast.Explain: Server._execute_explain,
    ast.Insert: Server._execute_dml,
    ast.Update: Server._execute_dml,
    ast.Delete: Server._execute_dml,
    ast.Execute: Server._execute_procedure_call,
    ast.CreateView: Server._execute_create_view,
    ast.Declare: Server._execute_variable,
    ast.SetVariable: Server._execute_variable,
    ast.PrintStatement: Server._execute_variable,
    **{kind: Server._execute_ddl for kind in _DDL},
}
