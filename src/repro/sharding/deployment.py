"""ShardedDeployment: N cache shards, each subscribing to a slice.

Builds on :class:`~repro.mtcache.deployment.MTCacheDeployment` — every
shard is an ordinary minimal-shadow cache server whose cached views of
the partitioned tables carry the shard's slice predicate, so the
existing replication pipeline (articles with row restrictions, log
reader, push agents) delivers each shard only its horizontal slice.
The policy's other views replicate in full to every shard. Everything
past the views is derived: the shadowed tables are the views' source
tables, the copied procedures the ones
:func:`~repro.sharding.routing.procedure_routes` sends to a shard.

The division of labor with the router:

* the **deployment** owns placement (the :class:`RangePartitioner`),
  provisioning, and rebalancing (boundary moves executed from
  :meth:`tick`, one per tick);
* the **router** (:meth:`router` / :meth:`connect`) owns statement
  routing, scatter-gather, and per-shard failover.

Correctness never rests on the router being current: a shard's slice
views are *predicated*, so the optimizer's dynamic plans serve owned
keys locally and transparently fetch unowned keys from the backend —
a misrouted or mid-rebalance statement is slower, not wrong.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import CatalogError
from repro.exec.context import DEFAULT_BATCH_ROWS
from repro.mtcache.cache_server import CacheServer
from repro.mtcache.deployment import MTCacheDeployment
from repro.obs.metrics import MetricsRegistry
from repro.sharding.policy import ShardingPolicy, TablePartition, source_table, tpcw_sharding_policy
from repro.sharding.rebalance import Rebalancer
from repro.sharding.ring import RangePartitioner, slice_predicate
from repro.sharding.routing import procedure_routes
from repro.sql import ast
from repro.sql.formatter import format_statement
from repro.tpcw.config import TPCWConfig


class ShardedDeployment:
    """A partitioned cache tier over one backend."""

    def __init__(
        self,
        backend=None,
        config=None,
        shards: int = 8,
        policy: Optional[ShardingPolicy] = None,
    ):
        """With no ``backend``, builds and populates a TPC-W backend
        (``config`` may override :class:`~repro.tpcw.TPCWConfig`) — the
        quickstart path. ``policy`` defaults to the TPC-W policy; one
        the backend catalog contradicts raises ``CatalogError`` here,
        before any shard is provisioned."""
        if backend is None:
            from repro.tpcw.setup import build_backend

            backend, config = build_backend(config)
        if policy is None:
            policy = tpcw_sharding_policy(config or TPCWConfig())
        from repro.analysis.shardlint import lint_sharding_policy
        from repro.tpcw.setup import DATABASE_NAME

        self.backend = backend
        self.policy = policy
        self.database_name = DATABASE_NAME
        diagnostics = lint_sharding_policy(policy, backend.database(DATABASE_NAME).catalog)
        if diagnostics:
            raise CatalogError(str(diagnostics[0]))
        self.deployment = MTCacheDeployment(backend, self.database_name)
        names = [f"shard{index}" for index in range(shards)]
        low, high = policy.key_domain
        self.partitioner = RangePartitioner(names, low, high)
        self.metrics = MetricsRegistry(namespace="sharding")
        self.shards: Dict[str, CacheServer] = {}
        for name in names:
            self.shards[name] = self._provision_shard(name)
        self.rebalancer = Rebalancer(self)

    # -- conveniences ------------------------------------------------------

    @property
    def clock(self):
        return self.deployment.clock

    @property
    def cache_servers(self) -> List[CacheServer]:
        return self.deployment.cache_servers

    def shard(self, name: str) -> CacheServer:
        return self.shards[name]

    def attach_fault_injector(self, injector) -> None:
        self.deployment.attach_fault_injector(injector)

    # -- provisioning ------------------------------------------------------

    def _shard_views(
        self, low: int, high: int
    ) -> Iterator[Tuple[ast.CreateView, Optional[TablePartition]]]:
        """The policy's views as the shard owning ``[low, high]`` holds
        them: a view over a partitioned table has the slice ANDed into
        its WHERE clause, every other view is carried in full."""
        for view in self.policy.view_statements:
            partition = self.policy.partitions.get(source_table(view).lower())
            if partition is not None:
                where = slice_predicate(partition.key_column, low, high)
                if view.select.where is not None:
                    where = ast.BinaryOp(op="AND", left=view.select.where, right=where)
                view = view.replace(select=view.select.replace(where=where))
            yield view, partition

    def _routed_procedures(self) -> List[str]:
        """The procedures the router sends to a shard."""
        routes = procedure_routes(self.policy, self.deployment.backend_database.catalog)
        return [name for name, kind in routes.items() if kind != "backend"]

    def _provision_shard(self, name: str) -> CacheServer:
        cache = self.deployment.add_cache_server(
            name, shadow_tables=sorted(self.policy.source_tables)
        )
        for view, _ in self._shard_views(*self.partitioner.slice(name)):
            cache.create_cached_view(format_statement(view))
        cache.copy_procedures(self._routed_procedures())
        return cache

    def refresh_catalog(self) -> Dict[str, int]:
        """Propagate backend DDL to the shards, then copy the procedures
        the router now sends there (a redefinition can change the set)."""
        added = self.deployment.refresh_catalog()
        routed = self._routed_procedures()
        for cache in self.shards.values():
            held = cache.database.catalog.procedures
            cache.copy_procedures([name for name in routed if name.lower() not in held])
        return added

    def add_shard(self, name: str) -> CacheServer:
        """Grow the tier by one shard: split the widest slice into it.

        The full rebalance choreography in one call: provision the new
        cache with the upper half of the donor's range (subscribe +
        snapshot populate it), cut the partitioner over, then narrow the
        donor (articles, view definitions, rows). Use
        ``rebalancer.schedule_add_shard`` to run it from ``tick`` instead.
        """
        donor = self.partitioner.widest_shard()
        keep, give = self.partitioner.plan_split(donor)
        # Drain first: commands produced before the predicate change must
        # land under the old slices; later commits are classified by the
        # log reader at poll time, against the updated predicates.
        self.deployment.sync()
        self.partitioner.add_shard(name, *give)
        cache = self._provision_shard(name)
        self.shards[name] = cache
        self._retarget(donor, *keep)
        self.partitioner.set_slice(donor, *keep)
        self.metrics.counter("shard.rebalance_moves").inc()
        return cache

    # -- rebalancing internals --------------------------------------------

    def _retarget(self, shard_name: str, low: int, high: int) -> int:
        """Re-slice an existing shard to ``[low, high]``.

        Updates, for every view over a partitioned table: the
        publication article's predicate (future replicated commands), the
        shard's cached-view definition (so view matching sees the new
        slice), and the view's stored rows (copy gained keys from the
        backend, drop lost ones). Returns the number of rows moved in or
        out.

        The whole re-slice holds the shard database's latch exclusively —
        it is DDL plus a data move, and concurrent statements take the
        latch shared, so every query sees either the old slice with its
        old rows or the new slice with its new rows and a bumped catalog
        version (stale plans recompile). Without the latch a reader's
        cached plan could claim a key is local while its row is being
        deleted underneath it, answering with a silently empty result.
        """
        cache = self.shards[shard_name]
        database = cache.database
        backend_database = self.deployment.backend_database
        moved = 0
        with database.latch.exclusive():
            for view, partition in self._shard_views(low, high):
                if partition is None:
                    continue
                article = cache.subscriptions[view.name.lower()].article
                article.predicate = view.select.where
                article.bind(backend_database.catalog.get_table(partition.table).schema)
                view_def = database.catalog.get_view(view.name)
                database.catalog.drop_view(view.name)
                database.catalog.add_view(replace(view_def, select=view.select))
                moved += self._resync_rows(
                    database.storage_table(view.name),
                    backend_database.storage_table(partition.table),
                    article,
                    partition.key_column,
                    low,
                    high,
                )
                database.analyze(view.name)
            database.bump_version()
        return moved

    @staticmethod
    def _resync_rows(
        storage, source, article, key_column: str, low: int, high: int
    ) -> int:
        """Make the view's stored rows exactly the backend rows in range.

        Idempotent set reconciliation rather than delta shipping: drop
        rows that left the slice, copy rows that joined it (skipping keys
        already present — replication may already have delivered them).
        The view stores the article's columns in order, so the key sits
        where the article projects it.
        """
        key_position = [column.lower() for column in article.columns].index(
            key_column.lower()
        )
        moved = 0
        stale = [
            rid
            for rid, row in storage.scan()
            if not (low <= row[key_position] <= high)
        ]
        for rid in stale:
            storage.delete_rid(rid)
        moved += len(stale)
        present = {row[key_position] for _, row in storage.scan()}
        for chunk in source.scan_batches(DEFAULT_BATCH_ROWS):
            for projected in article.select(chunk):
                if projected[key_position] not in present:
                    storage.insert(projected)
                    moved += 1
        return moved

    def move_boundary(self, left: str, right: str, new_cut: int) -> int:
        """Shift the boundary between two adjacent shards to ``new_cut``
        (the left shard's new inclusive high). Returns rows moved.

        The shard caches are re-sliced first — during that window the
        router still routes by the old cut, and a shard queried for keys
        it just lost answers through its dynamic plans' guards (slower,
        never wrong) — and only then does the partitioner cut over,
        atomically, so no reader ever observes a half-moved boundary.
        """
        left_low, left_high = self.partitioner.slice(left)
        right_low, right_high = self.partitioner.slice(right)
        if right_low != left_high + 1:
            raise ValueError(f"shards {left!r} and {right!r} are not adjacent")
        if not (left_low <= new_cut < right_high):
            raise ValueError(f"cut {new_cut} outside ({left_low}, {right_high})")
        self.deployment.sync()
        moved = 0
        if new_cut > left_high:  # left grows: widen it first, then shrink right
            moved += self._retarget(left, left_low, new_cut)
            moved += self._retarget(right, new_cut + 1, right_high)
        else:  # left shrinks: grow right first
            moved += self._retarget(right, new_cut + 1, right_high)
            moved += self._retarget(left, left_low, new_cut)
        self.partitioner.move_boundary(left, right, new_cut)
        self.metrics.counter("shard.rebalance_moves").inc()
        self.metrics.counter("shard.rebalance_rows").inc(moved)
        return moved

    # -- driving -----------------------------------------------------------

    def tick(self, advance: float = 0.0) -> Dict[str, int]:
        """Advance replication, then run at most one due rebalance move."""
        counters = self.deployment.tick(advance)
        counters["rebalance_moves"] = self.rebalancer.run_due(self.clock.now())
        return counters

    def sync(self) -> None:
        self.deployment.sync()

    # -- the client tier ---------------------------------------------------

    def router(self, probe_interval: float = 1.0):
        """A :class:`~repro.client.ShardRouter` over per-shard failover."""
        from repro.client.shard_router import ShardRouter

        def target_factory(name: str):
            cache = self.shards.get(name)
            if cache is None:
                return None
            return self.deployment.failover_connection(cache, probe_interval=probe_interval)

        return ShardRouter(
            backend=self.backend,
            database=self.database_name,
            partitioner=self.partitioner,
            policy=self.policy,
            shard_targets={name: target_factory(name) for name in self.shards},
            registry=self.metrics,
            target_factory=target_factory,
        )

    def connect(self, principal: str = "dbo"):
        """A routed DBAPI connection (the README quickstart entrypoint);
        ``principal`` is the connection's, carried by its one session."""
        from repro.client import connect

        return connect(self.router(), principal=principal)

    # -- observability -----------------------------------------------------

    def snapshot(self) -> Dict:
        """The deployment snapshot plus shard routing/placement state."""
        from repro.obs.export import deployment_snapshot

        snapshot = deployment_snapshot(self.deployment)
        snapshot["sharding"] = {
            "shards": {
                name: {"slice": list(self.partitioner.slice(name))}
                for name in self.partitioner.shards
            },
            "partitioner_version": self.partitioner.version,
            "metrics": self.metrics.snapshot(),
        }
        return snapshot

    def __repr__(self) -> str:
        return f"<ShardedDeployment shards={list(self.shards)}>"
