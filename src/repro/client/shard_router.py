"""ShardRouter: shard-aware statement routing for the partitioned tier.

The router is an execution target like a server or a
:class:`~repro.resilience.failover.FailoverRouter` — wrap it in a
:class:`~repro.client.Connection` (or call :meth:`connection`) and the
application never knows the cache tier is partitioned. Per statement it
decides one of three routes:

* **key** — the statement touches a partitioned table with an equality
  on the partition key (or calls a procedure declared single-key): it
  goes, unmodified, to the owning shard. A stale ownership guess (e.g.
  mid-rebalance) is still correct: the shard's slice view only matches
  keys it actually holds, so the optimizer's guarded plan fetches a
  missing key from the backend.
* **scatter** — a decomposable scan: each shard runs the statement with
  its slice conjunct ANDed in, and the router re-merges (UNION ALL, then
  ORDER BY/TOP re-applied). See :mod:`repro.sharding.scatter`.
* **backend** — everything else (writes, transactions, global
  aggregates, statements over unpartitioned/uncached tables).

Each shard is reached through its own ``FailoverRouter``, so a dead
shard degrades that shard's share of traffic to the backend instead of
failing it. Route decisions are cached per statement text, checked
against the backend database's schema version; the scatter route
additionally caches per-shard SQL keyed by the partitioner version so
rebalancing invalidates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.locks import mutex
from repro.common.lru import LRUCache
from repro.common.schema import Schema
from repro.engine.results import Result
from repro.errors import ClientError, OverloadError
from repro.resilience.deadline import check_deadline
from repro.sharding.policy import (
    ROUTE_KEY,
    ROUTE_SCATTER,
    ShardingPolicy,
)
from repro.sharding.scatter import ScatterQuery, decompose
from repro.sql import ast, parse

#: Value sources for routing keys and procedure arguments:
#: ("param", name) reads the statement's parameter dict, ("literal", v)
#: is a constant baked into the statement text.
_Source = Tuple[str, Any]


@dataclass
class _Decision:
    """A cached routing decision for one statement text."""

    kind: str  # "key" | "scatter" | "backend"
    key_source: Optional[_Source] = None
    scatter: Optional[ScatterQuery] = None
    # None passes the statement's params through unchanged; otherwise a
    # mapping of procedure-parameter name -> value source.
    param_map: Optional[Tuple[Tuple[str, _Source], ...]] = None
    # Per-shard SQL cache: (partitioner version, {shard: sql}).
    _shard_sql: Optional[Tuple[int, Dict[str, str]]] = None


_BACKEND_DECISION = _Decision(kind="backend")


class ShardRouter:
    """Routes statements across shard connections and the backend."""

    #: Transaction control routes to the backend connection, whose session
    #: transacts; a Connection over the router reads :attr:`in_transaction`.
    remote_session = True

    def __init__(
        self,
        backend,
        database: str,
        partitioner,
        policy: ShardingPolicy,
        shard_targets: Dict[str, Any],
        registry=None,
        principal: str = "dbo",
        target_factory=None,
    ):
        """``target_factory(name)`` supplies an execution target for a
        shard provisioned after the router was built (rebalancing grows
        the tier); None (or a factory returning None) leaves unknown
        shards to the backend fallback."""
        from repro.client.connection import Connection

        self.partitioner = partitioner
        self.policy = policy
        self.registry = registry
        self.principal = principal
        self._database = backend.database(database)
        self._backend = Connection(backend, database=database, principal=principal)
        self._target_factory = target_factory
        # Guards the shard-connection map: routed traffic runs on worker
        # threads while rebalancing adds shards through _shard_connection.
        self._mutex = mutex()
        self._shards: Dict[str, Any] = {
            name: Connection(target, principal=principal)
            for name, target in shard_targets.items()
        }
        self._decisions = LRUCache(capacity=512)
        self.closed = False

    def _shard_connection(self, name: str):
        """The shard's connection, building one for newly added shards."""
        connection = self._shards.get(name)
        if connection is None and self._target_factory is not None:
            with self._mutex:
                connection = self._shards.get(name)
                if connection is None:
                    target = self._target_factory(name)
                    if target is not None:
                        from repro.client.connection import Connection

                        connection = Connection(target, principal=self.principal)
                        self._shards[name] = connection
        return connection

    # -- execution-target surface (what Connection expects) ----------------

    @property
    def server(self):
        """The backend engine server (metrics/clock anchoring)."""
        return self._backend.server

    @property
    def name(self) -> str:
        return f"shard-router({len(self._shards)})"

    def healthy(self) -> bool:
        """The router as a whole survives any shard dying; always healthy."""
        return True

    @property
    def in_transaction(self) -> bool:
        return self._backend.in_transaction()

    @property
    def failovers(self) -> int:
        """Total failovers across the per-shard routers."""
        return sum(
            getattr(connection.target, "failovers", 0)
            for connection in list(self._shards.values())
        )

    @property
    def failbacks(self) -> int:
        return sum(
            getattr(connection.target, "failbacks", 0)
            for connection in list(self._shards.values())
        )

    def connection(self):
        """A DBAPI connection facade over this router."""
        from repro.client.connection import Connection

        return Connection(self)

    def close(self) -> None:
        if self.closed:
            return
        for connection in list(self._shards.values()):
            connection.close()
        self._backend.close()
        self.closed = True

    # -- routing -----------------------------------------------------------

    def execute(
        self, sql: str, params: Optional[Dict[str, Any]] = None, session: Any = None
    ) -> Result:
        if self.closed:
            raise ClientError("shard router is closed")
        check_deadline("shard routing")
        # Decisions embed catalog facts (a procedure's parsed body), so
        # they are checked against the backend's schema version.
        version = self._database.version
        entry = self._decisions.get(sql, valid=lambda e: e[0] == version)
        if entry is None:
            entry = (version, self._decide(sql))
            self._decisions[sql] = entry
        decision = entry[1]
        if decision.kind == "key":
            return self._execute_key(decision, sql, params)
        if decision.kind == "scatter":
            return self._execute_scatter(decision, params)
        return self._execute_backend(sql, params)

    def _count_hit(self, shard: str) -> None:
        if self.registry is not None:
            self.registry.counter("shard.hits", labels={"shard": shard}).inc()

    def _count_miss(self) -> None:
        if self.registry is not None:
            self.registry.counter("shard.misses").inc()

    def _count_fanout(self) -> None:
        if self.registry is not None:
            self.registry.counter("shard.fanout").inc()

    def _count_degraded(self, shard: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                "overload.degraded_scatter", labels={"shard": shard}
            ).inc()

    def _execute_backend(self, sql, params) -> Result:
        self._count_miss()
        return self._backend._raw_execute(sql, params)

    def _execute_key(self, decision: _Decision, sql: str, params) -> Result:
        value = _resolve(decision.key_source, params)
        if value is None:
            return self._execute_backend(sql, params)
        owner = self.partitioner.owner(value)
        connection = self._shard_connection(owner)
        if connection is None:
            return self._execute_backend(sql, params)
        self._count_hit(owner)
        try:
            return connection._raw_execute(sql, params)
        except OverloadError:
            # The owning shard shed the statement before any effect
            # (OverloadError is raised pre-execution), so re-running on
            # the backend is safe even for writes — degrade instead of
            # failing the request.
            self._count_degraded(owner)
            return self._execute_backend(sql, params)

    def _execute_scatter(self, decision: _Decision, params) -> Result:
        scatter = decision.scatter
        assert scatter is not None
        shard_sql = self._shard_statements(decision)
        if not shard_sql:
            return self._execute_backend(
                # No range slices to scatter over (hash partitioner):
                # reconstruct nothing — run the original on the backend.
                scatter_sql_fallback(scatter),
                _remap(decision.param_map, params),
            )
        exec_params = _remap(decision.param_map, params)
        per_shard: List[Sequence[Tuple]] = []
        schema: Optional[Schema] = None
        for shard, statement in shard_sql.items():
            # Each scatter hop spends budget; stop fanning out the moment
            # the statement's deadline is gone rather than finishing the
            # sweep on borrowed time.
            check_deadline("scatter hop")
            connection = self._shard_connection(shard)
            if connection is None:
                # Unknown shard: its slice statement still returns exactly
                # the slice's rows when run on the backend's base tables —
                # the conjunct defines the slice by value, not placement.
                connection = self._backend
                self._count_miss()
            else:
                self._count_hit(shard)
            try:
                result = connection._raw_execute(statement, exec_params)
            except OverloadError:
                # An overloaded shard shed its slice pre-execution; the
                # slice conjunct selects by value, so the backend's base
                # tables return exactly the same rows. Degrade the hop.
                self._count_degraded(shard)
                result = self._backend._raw_execute(statement, exec_params)
            self._count_fanout()
            per_shard.append(result.rows)
            if schema is None:
                schema = result.schema
        rows = scatter.merge(per_shard)
        if schema is not None and scatter.width < len(schema):
            schema = Schema(list(schema)[: scatter.width])
        return Result(rows=rows, schema=schema, rowcount=len(rows))

    def _shard_statements(self, decision: _Decision) -> Dict[str, str]:
        """Per-shard scatter SQL, cached against the partitioner version."""
        version = self.partitioner.version
        cached = decision._shard_sql
        if cached is not None and cached[0] == version:
            return cached[1]
        slice_of = getattr(self.partitioner, "slice", None)
        statements: Dict[str, str] = {}
        if slice_of is not None:
            for shard in self.partitioner.shards:
                low, high = slice_of(shard)
                if high < low:
                    continue  # empty slice (e.g. a shard mid-provisioning)
                statements[shard] = decision.scatter.shard_sql(low, high)
        decision._shard_sql = (version, statements)
        return statements

    # -- decision building -------------------------------------------------

    def _decide(self, sql: str) -> _Decision:
        try:
            statement = parse(sql)
        except Exception:
            return _BACKEND_DECISION
        if isinstance(statement, ast.Execute):
            return self._decide_execute(statement)
        if isinstance(statement, ast.Select):
            return self._decide_select(statement)
        return _BACKEND_DECISION

    def _decide_execute(self, statement: ast.Execute) -> _Decision:
        procedure_name = statement.procedure[-1]
        route = self.policy.route_for(procedure_name)
        try:
            procedure = self._database.catalog.get_procedure(procedure_name)
        except Exception:
            return _BACKEND_DECISION
        arguments = _argument_sources(statement, procedure)
        if arguments is None:
            return _BACKEND_DECISION
        if route.kind == ROUTE_KEY and route.key_param:
            source = dict(arguments).get(route.key_param.lower())
            if source is None:
                return _BACKEND_DECISION
            return _Decision(kind="key", key_source=source)
        if route.kind == ROUTE_SCATTER:
            selects = [
                body_statement
                for body_statement in procedure.body
                if isinstance(body_statement, ast.Select)
            ]
            if len(selects) != 1 or len(procedure.body) != 1:
                return _BACKEND_DECISION
            scatter = decompose(selects[0], self.policy.partitions)
            if scatter is None:
                return _BACKEND_DECISION
            return _Decision(kind="scatter", scatter=scatter, param_map=arguments)
        return _BACKEND_DECISION

    def _decide_select(self, statement: ast.Select) -> _Decision:
        key_source = self._key_equality(statement)
        if key_source is not None:
            return _Decision(kind="key", key_source=key_source)
        scatter = decompose(statement, self.policy.partitions)
        if scatter is not None and self._tables_shadowed(statement):
            return _Decision(kind="scatter", scatter=scatter, param_map=None)
        return _BACKEND_DECISION

    def _tables_shadowed(self, statement: ast.Select) -> bool:
        shadowed = {table.lower() for table in self.policy.shadow_tables}
        from repro.sharding.scatter import _table_names

        tables = _table_names(statement.from_clause)
        if not tables:
            return False
        return all(table.object_name.lower() in shadowed for table in tables)

    def _key_equality(self, statement: ast.Select) -> Optional[_Source]:
        """A ``key = @p`` / ``key = literal`` conjunct on the partition key."""
        from repro.optimizer.predicates import split_conjuncts
        from repro.sharding.scatter import _table_names

        if not self._tables_shadowed(statement):
            return None
        tables = _table_names(statement.from_clause) or []
        partitioned = [
            table
            for table in tables
            if table.object_name.lower() in self.policy.partitions
        ]
        if len(partitioned) != 1:
            return None
        partition = self.policy.partitions[partitioned[0].object_name.lower()]
        qualifiers = {
            partitioned[0].binding_name.lower(),
            partitioned[0].object_name.lower(),
        }
        for conjunct in split_conjuncts(statement.where):
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            for column, value in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(column, ast.ColumnRef):
                    continue
                if column.name.lower() != partition.key_column.lower():
                    continue
                if column.qualifier and column.qualifier.lower() not in qualifiers:
                    continue
                if isinstance(value, ast.Parameter):
                    return ("param", value.name)
                if isinstance(value, ast.Literal) and value.value is not None:
                    return ("literal", value.value)
        return None

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<ShardRouter shards={list(self._shards)} {state}>"


def _argument_sources(
    statement: ast.Execute, procedure
) -> Optional[Tuple[Tuple[str, _Source], ...]]:
    """Map procedure parameter names to value sources, or None when the
    call uses expressions the router cannot evaluate client-side."""
    parameter_names = [param.name.lower() for param in procedure.params]
    sources: List[Tuple[str, _Source]] = []
    for position, (name, expression) in enumerate(statement.arguments):
        if name is not None:
            target = name.lower()
        elif position < len(parameter_names):
            target = parameter_names[position]
        else:
            return None
        if isinstance(expression, ast.Parameter):
            sources.append((target, ("param", expression.name)))
        elif isinstance(expression, ast.Literal):
            sources.append((target, ("literal", expression.value)))
        else:
            return None
    return tuple(sources)


def _resolve(source: Optional[_Source], params: Optional[Dict[str, Any]]):
    if source is None:
        return None
    kind, value = source
    if kind == "literal":
        return value
    return (params or {}).get(value)


def _remap(
    param_map: Optional[Tuple[Tuple[str, _Source], ...]],
    params: Optional[Dict[str, Any]],
) -> Optional[Dict[str, Any]]:
    if param_map is None:
        return params
    return {name: _resolve(source, params) for name, source in param_map}


def scatter_sql_fallback(scatter: ScatterQuery) -> str:
    """The undecomposed statement text (backend fallback for scatter)."""
    from repro.sql.formatter import format_statement

    trimmed = scatter.select
    if scatter.width < len(trimmed.items):
        from dataclasses import replace

        trimmed = replace(trimmed, items=trimmed.items[: scatter.width])
    return format_statement(trimmed)
