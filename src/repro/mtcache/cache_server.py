"""A cache server: SQL Server configured with a shadow database.

The shadow database contains the same tables, views, indexes, constraints
and permissions as the backend database, all tables empty, with statistics
adopted from the backend so the optimizer costs shadow tables as if the
data were local (paper §3). What data actually lives here is defined by
``CREATE CACHED VIEW`` statements, each of which automatically provisions
a replication subscription (creating a matching publication article when
none exists) and populates the view with an initial snapshot. The cache
server as a whole is one replication *subscriber*: one distribution
agent, one watermark, every view at the same committed prefix.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.catalog.objects import ViewDef
from repro.common.lru import LRUCache
from repro.common.schema import Column, Schema
from repro.engine import Database, Server
from repro.errors import (
    BindError,
    CatalogError,
    CircuitOpenError,
    LinkUnavailableError,
    OverloadError,
    ReplicationError,
    ServerUnavailableError,
)
from repro.replication.agent import DistributionAgent
from repro.replication.subscription import Subscriber, Subscription
from repro.sql import ast, parse
from repro.sql.formatter import format_statement


def _degraded_key(sql: str, params: Optional[Dict]):
    """Key of a degraded-read entry, or None for unhashable params."""
    if not params:
        return sql
    try:
        return (sql, frozenset(params.items()))
    except TypeError:
        return None


class CacheServer:
    """One mid-tier cache server attached to a deployment."""

    def __init__(self, server: Server, deployment, shadow_db_name: str):
        self.server = server
        self.deployment = deployment
        self.shadow_db_name = shadow_db_name
        # One subscriber per shadow database; on a server attached to a
        # second backend the database name keeps the two apart.
        database = self.database
        name = server.name
        if database.backend_server != "backend":
            name = f"{name}_{shadow_db_name}"
        self.subscriber = Subscriber(name, database)
        # Minimal shadows (paper §7) only carry the catalog relevant to
        # the cached views; anything else is forwarded as whole statements.
        self.minimal_shadow = False
        self.statements_forwarded = 0
        # Read-only statements rerouted to the backend on transient
        # failures (link down, breaker open, own server crashed).
        self.fallback_reads = 0
        # Graceful degradation under overload: recent read-only results,
        # each stored with the time its data was current as of. When
        # admission control sheds a read, the cache may answer from here
        # as long as that is at most ``degraded_staleness`` ago — a
        # declared bounded-staleness answer instead of an error. Writes
        # are never served this way (they re-raise, loudly).
        self.degraded_staleness: float = 5.0
        self.degraded_reads = 0
        self._degraded_results: LRUCache = LRUCache(128)

    @property
    def database(self) -> Database:
        return self.server.database(self.shadow_db_name)

    @property
    def name(self) -> str:
        return self.server.name

    @property
    def subscriptions(self) -> Dict[str, Subscription]:
        """Cached view name (lower) -> its replication subscription."""
        return self.subscriber.subscriptions

    @property
    def agent(self) -> Optional[DistributionAgent]:
        """The distribution agent serving this cache (None while killed)."""
        for agent in self.deployment.distributor.agents:
            if agent.subscriber is self.subscriber:
                return agent
        return None

    # -- the public query interface (what applications see) -----------------

    def execute(self, sql: str, params: Optional[Dict] = None, session=None):
        """Execute SQL exactly as an application would against the backend.

        Queries route cost-based between local cached views and the
        backend; updates and unknown procedure calls forward transparently.
        On a *minimal shadow* (paper §7), statements touching objects the
        shadow does not carry cannot be bound locally — they forward to
        the backend as whole statements, preserving transparency.

        Transient failures get the same treatment for *read-only*
        batches: when the backend link is unreachable even after retries
        (or its breaker is open, or this cache's own server is down), a
        SELECT re-runs on the backend as a whole statement — retryable
        reads never fail because a cache did. Writes propagate the error;
        the application-tier :class:`~repro.resilience.FailoverRouter`
        handles rerouting those.

        Under overload (admission control shedding), a read-only batch
        may degrade to a recently cached result as long as its total
        staleness — replication lag at capture plus entry age — stays
        within :attr:`degraded_staleness`. Writes always re-raise
        the :class:`~repro.errors.OverloadError`: load shedding must
        never silently drop a write.
        """
        try:
            result = self.server.execute(
                sql, params=params, session=session, database=self.shadow_db_name
            )
        except (OverloadError,):
            cached = self._degraded_result(sql, params)
            if cached is None:
                raise
            self.degraded_reads += 1
            self.server.metrics.counter("overload.degraded_reads").inc()
            return cached
        except (BindError, CatalogError):
            if not self.minimal_shadow:
                raise
            self.statements_forwarded += 1
            self.server.metrics.counter("mtcache.statements_forwarded").inc()
            with self.server.tracer.child_span("forward.statement", target="backend"):
                return self._on_backend(sql, params, session)
        except (LinkUnavailableError, ServerUnavailableError, CircuitOpenError):
            if not self._read_only_batch(sql):
                raise
            self.fallback_reads += 1
            self.server.metrics.counter("resilience.fallback_reads").inc()
            with self.server.tracer.child_span("failover.read", target="backend"):
                return self._on_backend(sql, params, session)
        if result.read_only:
            key = _degraded_key(sql, params)
            if key is not None:
                self._degraded_results[key] = (self._current_as_of(), result)
        return result

    def _on_backend(self, sql: str, params: Optional[Dict], session):
        """Run a whole statement on the backend, as the caller's session
        (a fallback must not answer what the backend would deny)."""
        deployment = self.deployment
        return deployment.backend.execute(
            sql, params=params, session=session, database=deployment.database_name
        )

    # -- degraded reads (overload) ---------------------------------------------

    def _current_as_of(self) -> float:
        """The time the cached views' data is current as of: the
        subscriber's (:meth:`Subscriber.as_of`), or now without cached
        views. ``now − as_of`` is :meth:`staleness`; a result captured
        with ``as_of`` has, at a later ``now``, a total staleness of its
        age plus the lag at capture, which is ``now − as_of``."""
        if self.subscriptions:
            return self.subscriber.as_of()
        return self.server.clock.now()

    def _degraded_result(self, sql: str, params: Optional[Dict]):
        """A cached result fresh enough to serve under overload, or None.

        Only read-only batches have entries (being read-only is a property
        of the text, which is the key), and one is served only while its
        data is current as of at most :attr:`degraded_staleness` ago.
        """
        key = _degraded_key(sql, params)
        if key is None:
            return None
        entry = self._degraded_results.get(key)
        if entry is None:
            return None
        as_of, result = entry
        if self.server.clock.now() - as_of > self.degraded_staleness:
            return None
        return result

    def _read_only_batch(self, sql: str) -> bool:
        """True when every statement in the batch is a pure query — for the
        failure path, where nothing ran and only the text is at hand (a
        successful execution carries the bit on its result).

        Uses the server's literal-lifting, version-checked parse cache (a
        lookup on the statement's template, never a second parse of a
        literal text); parsing here is safe even when the server is
        marked crashed (in-process model).
        """
        try:
            statements = self.server.parsed(sql, self.shadow_db_name)
        except Exception:
            return False
        return bool(statements) and all(
            isinstance(statement, (ast.Select, ast.UnionAll, ast.Explain))
            for statement in statements
        )

    def healthy(self) -> bool:
        """Health probe for failover routers: up, with no breaker stuck open.

        A breaker whose reset timeout has elapsed counts as healthy — the
        first routed call performs the half-open probe.
        """
        if not getattr(self.server, "available", True):
            return False
        links = self.server.linked_servers
        for name in links.names():
            if not links.get(name).breaker.ready():
                return False
        return True

    def plan(self, sql: str):
        """Plan exactly the SELECT given — literals stay literals, so a
        constant gets its static plan, unlike the lifted template
        :meth:`execute` would run — and return the PlannedStatement (for
        inspection)."""
        statement = parse(sql)
        if not isinstance(statement, ast.Select):
            raise ValueError("plan() accepts SELECT statements only")
        return self.server.plan_select(statement, self.database)

    # -- cached views ---------------------------------------------------------

    def create_cached_view(self, sql: str) -> ViewDef:
        """Run a ``CREATE CACHED VIEW`` statement.

        Equivalent to executing the statement through :meth:`execute`; the
        DDL layer routes it to :meth:`_handle_cached_view`.
        """
        statement = parse(sql)
        if not (isinstance(statement, ast.CreateView) and statement.cached):
            raise ValueError("create_cached_view expects CREATE CACHED VIEW ...")
        self._handle_cached_view(statement)
        return self.database.catalog.get_view(statement.name)

    def _handle_cached_view(self, statement) -> None:
        """The cached-view DDL hook installed on the shadow database:
        ``CREATE CACHED VIEW`` provisions the view and its subscription,
        ``DROP VIEW`` of a cached view ends the subscription."""
        if isinstance(statement, ast.DropObject):
            self.subscriber.remove(statement.name)
            return
        select = statement.select
        if not isinstance(select.from_clause, ast.TableName):
            raise ReplicationError(
                "cached views must be select-project expressions over one table"
            )
        source_table = select.from_clause.object_name
        backend_db = self.deployment.backend_database
        source_def = backend_db.catalog.get_table(source_table)

        # Resolve the projected columns (Star expands to all columns).
        columns: List[str] = []
        output_names: List[str] = []
        for item in select.items:
            if isinstance(item.expression, ast.Star):
                for column in source_def.schema.names:
                    columns.append(column)
                    output_names.append(column)
                continue
            if not isinstance(item.expression, ast.ColumnRef):
                raise ReplicationError(
                    "cached view select lists may contain only plain columns"
                )
            columns.append(item.expression.name)
            output_names.append(item.alias or item.expression.name)

        view_schema = Schema(
            Column(
                name=output_name,
                sql_type=source_def.schema[source_def.schema.resolve(column)].sql_type,
                nullable=source_def.schema[source_def.schema.resolve(column)].nullable,
            )
            for column, output_name in zip(columns, output_names)
        )

        # Primary key carries over when fully projected, giving the
        # subscriber a unique index for change application.
        projected = {column.lower() for column in columns}
        primary_key = (
            source_def.primary_key
            if source_def.primary_key
            and all(key.lower() in projected for key in source_def.primary_key)
            else ()
        )
        if primary_key:
            rename = {
                column.lower(): output_name
                for column, output_name in zip(columns, output_names)
            }
            primary_key = tuple(rename[key.lower()] for key in primary_key)

        # Before anything is created: the new view must join the others
        # at their position in the stream.
        self.deployment.drain(self)

        database = self.database
        database.catalog.add_view(
            ViewDef(
                name=statement.name,
                select=select,
                schema=view_schema,
                materialized=True,
                cached=True,
                source_text=format_statement(statement),
            )
        )
        database.create_view_storage(statement.name, view_schema, primary_key)

        # Mirror the backend's indexes whose columns the view projects
        # ("all indexes on the cache servers were identical to indexes on
        # the backend server", §6.1.2).
        storage = database.storage_table(statement.name)
        rename = {
            column.lower(): output_name
            for column, output_name in zip(columns, output_names)
        }
        for index in backend_db.catalog.indexes_on(source_table):
            if all(column.lower() in projected for column in index.columns):
                local_columns = [rename[column.lower()] for column in index.columns]
                index_name = f"{statement.name}_{index.name}"
                storage.create_index(index_name, local_columns, unique=False)
                from repro.catalog.objects import IndexDef

                database.catalog.add_index(
                    IndexDef(index_name, statement.name, tuple(local_columns))
                )

        # Provision replication: article (creating it if absent),
        # snapshot, subscription on this cache's subscriber (paper §4).
        article = self.deployment.ensure_article(
            view_name=statement.name,
            source_table=source_table,
            columns=tuple(columns),
            predicate=select.where,
        )
        self.deployment.snapshot(article, storage)
        self.subscriber.add(
            Subscription(
                name=f"{self.server.name}_{statement.name}",
                article=article,
                target_table=statement.name,
            )
        )
        database.analyze(statement.name)
        database.bump_version()

    # -- procedures -----------------------------------------------------------

    def copy_procedure(self, name: str) -> None:
        """Copy one stored procedure from the backend (DBA-controlled).

        Procedures are not shadowed by default; the DBA selects which ones
        run on the mid tier (paper §5.2).
        """
        backend_db = self.deployment.backend_database
        procedure = backend_db.catalog.get_procedure(name)
        self.database.catalog.add_procedure(procedure)
        self.database.bump_version()

    def copy_procedures(self, names: List[str]) -> None:
        for name in names:
            self.copy_procedure(name)

    # -- freshness -----------------------------------------------------------

    def staleness(self) -> float:
        """Upper bound (seconds) on how stale the cached views may be."""
        if not self.subscriptions:
            return 0.0
        return self.subscriber.staleness(self.database.clock.now())

    def __repr__(self) -> str:
        return f"<CacheServer {self.server.name} views={list(self.subscriptions)}>"
