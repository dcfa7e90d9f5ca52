"""ShardRouter: shard-aware statement routing for the partitioned tier.

The router is an execution target like a server or a
:class:`~repro.resilience.failover.FailoverRouter` — ``connect(router)``
and the application never knows the cache tier is partitioned. It keeps
no sessions: the caller's session travels with each statement to the
shard or backend that runs it. Per statement it
executes one of the three routes :func:`repro.sharding.routing.decide`
derives from the statement and the backend catalog (nothing is declared
per procedure — a procedure whose body is a single SELECT routes as that
SELECT would):

* **key** — an equality on the partition key of a partitioned table: the
  statement goes, unmodified, to the owning shard. A stale ownership
  guess (e.g. mid-rebalance) is still correct: the shard's slice view
  only matches keys it actually holds, so the optimizer's guarded plan
  fetches a missing key from the backend. A key the partitioner cannot
  place (NULL, or anything but an integer) goes to the backend.
* **scatter** — a decomposable scan, or a join of co-partitioned tables
  grouped by their key (the best-seller query): each shard runs the
  statement with its slice conjuncts ANDed in, and the router re-merges
  (UNION ALL, then ORDER BY/TOP re-applied). See
  :mod:`repro.sharding.scatter`.
* **backend** — everything else (writes, transactions, aggregates whose
  groups span shards, statements over unpartitioned/uncached tables), and every
  statement of a session inside an explicit transaction: ``BEGIN`` runs
  on the backend, which is the transaction's home from then on
  (:func:`~repro.client.connection.execute_home` sends it there).

Each shard is reached through its own ``FailoverRouter``, so a dead
shard degrades that shard's share of traffic to the backend instead of
failing it. Literals are lifted to parameters first
(:func:`repro.sql.lift_literals`), so route decisions are cached per
statement *template*, checked against the backend database's schema
version; the scatter route additionally caches per-shard SQL keyed by
the partitioner version so rebalancing invalidates it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.client.connection import execute_home, execute_on
from repro.common.locks import mutex
from repro.common.lru import LRUCache
from repro.common.schema import Schema
from repro.engine.results import Result
from repro.errors import ClientError, OverloadError
from repro.resilience.deadline import check_deadline
from repro.sharding.policy import ShardingPolicy
from repro.sharding.routing import BACKEND, Route, decide, remap, resolve
from repro.sql import lift_literals, overlay, parse


class ShardRouter:
    """Routes statements across shard targets and the backend."""

    def __init__(
        self,
        backend,
        database: str,
        partitioner,
        policy: ShardingPolicy,
        shard_targets: Dict[str, Any],
        registry=None,
        target_factory=None,
    ):
        """``target_factory(name)`` supplies an execution target for a
        shard provisioned after the router was built (rebalancing grows
        the tier); None (or a factory returning None) leaves unknown
        shards to the backend fallback."""
        self.partitioner = partitioner
        self.policy = policy
        self.registry = registry
        self._backend = backend
        self._backend_database = database
        self._database = backend.database(database)
        self._target_factory = target_factory
        # Guards the shard-target map: routed traffic runs on worker
        # threads while rebalancing adds shards through _shard_target.
        self._mutex = mutex()
        self._shards: Dict[str, Any] = dict(shard_targets)
        self._decisions = LRUCache(capacity=512)
        self.closed = False

    def _shard_target(self, name: str):
        """The shard's target, building one for newly added shards."""
        target = self._shards.get(name)
        if target is None and self._target_factory is not None:
            with self._mutex:
                target = self._shards.get(name)
                if target is None:
                    target = self._target_factory(name)
                    if target is not None:
                        self._shards[name] = target
        return target

    # -- execution-target surface (what Connection expects) ----------------

    @property
    def server(self):
        """The backend engine server (metrics/clock anchoring)."""
        return self._backend

    @property
    def name(self) -> str:
        return f"shard-router({len(self._shards)})"

    def healthy(self) -> bool:
        """The router as a whole survives any shard dying; always healthy."""
        return True

    @property
    def failovers(self) -> int:
        """Total failovers across the per-shard routers."""
        return sum(getattr(target, "failovers", 0) for target in list(self._shards.values()))

    @property
    def failbacks(self) -> int:
        return sum(getattr(target, "failbacks", 0) for target in list(self._shards.values()))

    def close(self) -> None:
        self.closed = True

    # -- routing -----------------------------------------------------------

    def execute(
        self, sql: str, params: Optional[Dict[str, Any]] = None, session: Any = None
    ) -> Result:
        if self.closed:
            raise ClientError("shard router is closed")
        check_deadline("shard routing")
        if session is not None and session.in_transaction:
            self._count_miss()
            return execute_home(sql, params, session)
        # Literals become parameters before anything is keyed on the text:
        # one decision per template, a constant partition key routes like
        # ``@p``, and the lifted text is a no-op for every layer below.
        template, lifted = lift_literals(sql)
        if lifted:
            merged = overlay(lifted, params)
            if merged is not None:
                sql, params = template, merged
        # Routes embed catalog facts (a procedure's parsed body), so they
        # are checked against the backend's schema version.
        version = self._database.version
        entry = self._decisions.get(sql, valid=lambda e: e[0] == version)
        if entry is None:
            entry = (version, self._decide(sql))
            self._decisions[sql] = entry
        route = entry[1]
        if route.kind == "key":
            return self._execute_key(route, sql, params, session)
        if route.kind == "scatter":
            return self._execute_scatter(route, params, session)
        return self._execute_backend(sql, params, session)

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

    def _execute_backend(self, sql, params, session) -> Result:
        self._count_miss()
        return execute_on(self._backend, self._backend_database, sql, params, session)

    def _execute_key(self, route: Route, sql: str, params, session) -> Result:
        value = resolve(route.key_source, params)
        if not isinstance(value, int) or isinstance(value, bool):
            # NULL, or a key the partitioner cannot place ('abc', 3.7):
            # no slice guard could compare it either, so the backend —
            # which answers any value the application may send — does.
            return self._execute_backend(sql, params, session)
        owner = self.partitioner.owner(value)
        target = self._shard_target(owner)
        if target is None:
            return self._execute_backend(sql, params, session)
        self._count_hit(owner)
        try:
            return target.execute(sql, params=params, session=session)
        except OverloadError:
            # The owning shard shed the statement before any effect
            # (OverloadError is raised pre-execution), so re-running on
            # the backend is safe even for writes — degrade instead of
            # failing the request.
            self._count_degraded(owner)
            return self._execute_backend(sql, params, session)

    def _execute_scatter(self, route: Route, params, session) -> Result:
        scatter = route.scatter
        assert scatter is not None
        exec_params = remap(route.param_map, params)
        backend, database = self._backend, self._backend_database
        per_shard: List[Sequence[Tuple]] = []
        schema: Optional[Schema] = None
        for shard, statement in self._shard_statements(route).items():
            # Each scatter hop spends budget; stop fanning out the moment
            # the statement's deadline is gone rather than finishing the
            # sweep on borrowed time.
            check_deadline("scatter hop")
            target = self._shard_target(shard)
            try:
                if target is None:
                    # Unknown shard: its slice statement still returns
                    # exactly the slice's rows when run on the backend's
                    # base tables — the conjunct defines the slice by
                    # value, not placement.
                    self._count_miss()
                    result = execute_on(backend, database, statement, exec_params, session)
                else:
                    self._count_hit(shard)
                    result = target.execute(statement, params=exec_params, session=session)
            except OverloadError:
                # An overloaded shard shed its slice pre-execution; the
                # slice conjunct selects by value, so the backend's base
                # tables return exactly the same rows. Degrade the hop.
                self._count_degraded(shard)
                result = execute_on(backend, database, statement, exec_params, session)
            self._count_fanout()
            per_shard.append(result.rows)
            if schema is None:
                schema = result.schema
        rows = scatter.merge(per_shard)
        if schema is not None and scatter.width < len(schema):
            schema = Schema(list(schema)[: scatter.width])
        return Result(rows=rows, schema=schema, rowcount=len(rows))

    def _shard_statements(self, route: Route) -> Dict[str, str]:
        """Per-shard scatter SQL, cached against the partitioner version."""
        assert route.scatter is not None
        version = self.partitioner.version
        cached = route.shard_sql
        if cached is not None and cached[0] == version:
            return cached[1]
        statements: Dict[str, str] = {}
        for shard in self.partitioner.shards:
            low, high = self.partitioner.slice(shard)
            if high < low:
                continue  # empty slice (e.g. a shard mid-provisioning)
            statements[shard] = route.scatter.shard_sql(low, high)
        route.shard_sql = (version, statements)
        return statements

    def _decide(self, sql: str) -> Route:
        try:
            statement = parse(sql)
        except Exception:
            return BACKEND
        return decide(statement, self.policy, self._database.catalog)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<ShardRouter shards={list(self._shards)} {state}>"

