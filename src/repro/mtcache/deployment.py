"""MTCacheDeployment: a backend server, its replication plumbing, and
cache servers.

The deployment owns the pieces the paper's Figure 1 shows between the
backend and the mid-tier: the distributor (with its distribution
database), the log reader on the published database, the auto-managed
publication, and one push agent per cache server. A cache server is one
subscriber: all of its cached views advance together, whole transaction
by whole transaction, so a read on the cache is always the backend's
answer at one committed prefix. ``tick()`` advances replication in
virtual time; the cluster simulator calls it as simulated time passes,
and interactive use can call ``sync()`` to drain everything.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.common.clock import SimulatedClock
from repro.engine import Database, Server
from repro.errors import ReplicationError
from repro.exec.context import DEFAULT_BATCH_ROWS
from repro.mtcache.cache_server import CacheServer
from repro.mtcache.scripts import generate_shadow_script
from repro.optimizer.cost import CostModel
from repro.replication.agent import DistributionAgent
from repro.replication.distributor import Distributor
from repro.replication.logreader import LogReader
from repro.replication.publication import Article, Publication
from repro.sql import ast
from repro.sql.formatter import format_expression


class MTCacheDeployment:
    """Backend + distributor + cache servers, sharing one virtual clock."""

    def __init__(
        self,
        backend: Server,
        database_name: str,
        logreader_interval: float = 0.25,
        agent_interval: float = 0.25,
        stats_refresh_interval: Optional[float] = None,
    ):
        """``stats_refresh_interval`` enables periodic re-shadowing of the
        backend's statistics onto the caches during ``tick()`` (the paper
        lists automatic catalog refresh as future work)."""
        self.backend = backend
        self.database_name = database_name
        self.clock: SimulatedClock = backend.clock
        self.logreader_interval = logreader_interval
        self.agent_interval = agent_interval
        self.stats_refresh_interval = stats_refresh_interval
        # The first periodic refresh happens one interval after creation
        # (caches adopt fresh statistics when provisioned anyway).
        self._last_stats_refresh = self.clock.now()

        self.distributor = Distributor()
        self.publication = Publication(
            name=f"mtcache_pub_{database_name}", database=database_name
        )
        self.log_reader = LogReader(
            self.backend_database, self.publication, self.distributor
        )
        self._last_logreader_poll = float("-inf")
        self.cache_servers: List[CacheServer] = []
        self._article_counter = itertools.count(1)
        # Chaos hook (repro.faults): when attached, ``tick()`` fires its
        # virtual-time schedule. None costs one attribute check.
        self.fault_injector = None

    @property
    def backend_database(self) -> Database:
        return self.backend.database(self.database_name)

    # -- cache server provisioning ---------------------------------------------

    def add_cache_server(
        self,
        name: str,
        cost_model: Optional[CostModel] = None,
        optimizer_options: Optional[dict] = None,
        shadow_tables: Optional[List[str]] = None,
    ) -> CacheServer:
        """Provision a cache server: shadow database + backend link.

        Follows the paper's setup steps: run the generated shadow script,
        adopt backend statistics, mark the shadow tables remote, register
        the backend as a linked server, install the cached-view DDL hook
        and the freshness provider, and start the cache's distribution agent.

        ``shadow_tables`` implements the paper's §7 suggestion of shadowing
        only the catalog information relevant to the cached views: when
        given, only those tables (and their indexes) are shadowed; queries
        touching anything else fall back to whole-statement forwarding.
        """
        server = Server(
            name,
            clock=self.clock,
            cost_model=cost_model,
            optimizer_options=optimizer_options,
        )
        return self._provision(server, shadow_tables, link_name="backend")

    def attach_cache_server(
        self,
        server: Server,
        shadow_tables: Optional[List[str]] = None,
    ) -> CacheServer:
        """Attach this deployment's shadow database to an *existing* server.

        The paper (§3): "a cache server may store data from multiple
        backend servers. Each shadow database is associated with a single
        backend server but nothing prevents different databases on a cache
        server from being associated with different backend servers."
        Attaching several deployments to one server realizes exactly that.
        """
        if server.clock is not self.clock:
            raise ReplicationError(
                "attached cache servers must share the deployment's clock"
            )
        link_name = (
            "backend"
            if "backend" not in server.linked_servers
            else f"backend_{self.database_name}"
        )
        return self._provision(server, shadow_tables, link_name=link_name)

    def _provision(
        self,
        server: Server,
        shadow_tables: Optional[List[str]],
        link_name: str,
    ) -> CacheServer:
        # Keeps an attached server's existing default database intact
        # (create_database only claims the default when none is set).
        shadow = server.create_database(self.database_name, make_default=False)

        # Step 1: the auto-generated shadow script (tables, indexes, views).
        script = generate_shadow_script(
            self.backend_database.catalog, only_tables=shadow_tables
        )
        if script.strip():
            server.execute(script, database=self.database_name)

        # The augmentation step: adopt statistics, shadow permissions, and
        # mark every shadow table as backend-resident.
        backend_db = self.backend_database
        for table_name in shadow.catalog.tables:
            stats = backend_db.stats_for(table_name)
            if stats is not None:
                shadow.set_statistics(table_name, stats.copy())
        shadow.catalog.permissions = backend_db.catalog.permissions.copy()
        shadow.mark_remote(shadow.catalog.tables.keys(), backend_server=link_name)
        server.linked_servers.register(link_name, self.backend, self.database_name)
        # Cache-server plans mix local and remote subexpressions — exactly
        # where the DataLocation/ChoosePlan invariants can break — so
        # checked execution is always on here.
        server.checked_plans = True

        cache = CacheServer(server, self, self.database_name)
        cache.minimal_shadow = shadow_tables is not None
        shadow.cached_view_handler = cache._handle_cached_view
        shadow.replication_staleness = cache.staleness
        self.cache_servers.append(cache)
        # No views yet, so the subscriber starts at the stream's frontier;
        # each view it gains is snapshotted on a drained cache.
        cache.subscriber.last_sequence = self.distributor.distribution_db.last_sequence
        self.distributor.register_agent(
            DistributionAgent(cache.subscriber, self.distributor, self.agent_interval)
        )
        return cache

    def refresh_catalog(self) -> Dict[str, int]:
        """Propagate backend DDL to every cache server's shadow catalog.

        The paper notes its prototype "do[es] not currently refresh the
        shadowed catalog information. This clearly needs to be done." This
        is that refresh: new tables, indexes and plain views appear on
        every (fully shadowed) cache; statistics are re-adopted. A copied
        procedure the backend has since redefined is re-copied (dropped,
        when the backend dropped it) on every cache, minimal shadows
        included — a cache must not keep answering with a definition the
        backend no longer has. Returns counts of objects added.
        """
        backend_db = self.backend_database
        added = {"tables": 0, "indexes": 0, "views": 0}
        for cache in self.cache_servers:
            shadow = cache.database
            for key, held in list(shadow.catalog.procedures.items()):
                current = backend_db.catalog.maybe_procedure(key)
                if current != held:
                    shadow.catalog.drop_procedure(key)
                    if current is not None:
                        shadow.catalog.add_procedure(current)
                    shadow.bump_version()
            if cache.minimal_shadow:
                continue  # minimal shadows stay minimal by design
            for key, table in backend_db.catalog.tables.items():
                if shadow.catalog.maybe_table(key) is None:
                    shadow.create_storage(table)
                    shadow.mark_remote([key], backend_server=shadow.backend_server)
                    added["tables"] += 1
            for key, index in backend_db.catalog.indexes.items():
                if key not in shadow.catalog.indexes:
                    shadow.catalog.add_index(index)
                    if shadow.has_storage(index.table):
                        storage = shadow.storage_table(index.table)
                        if index.name not in storage.indexes:
                            storage.create_index(index.name, index.columns, False)
                    added["indexes"] += 1
            for key, view in backend_db.catalog.views.items():
                if view.materialized:
                    continue
                if shadow.catalog.maybe_view(key) is None and shadow.catalog.maybe_table(key) is None:
                    shadow.catalog.add_view(view)
                    added["views"] += 1
            shadow.bump_version()
        self.refresh_statistics()
        return added

    def refresh_statistics(self) -> None:
        """Re-shadow backend statistics onto every cache server.

        The paper lists automatic refresh of shadowed catalog information
        as future work; this is the manual refresh path.
        """
        backend_db = self.backend_database
        for cache in self.cache_servers:
            for table_name in backend_db.catalog.tables:
                stats = backend_db.stats_for(table_name)
                if stats is not None:
                    cache.database.set_statistics(table_name, stats.copy())

    # -- replication management ---------------------------------------------------

    def ensure_article(
        self,
        view_name: str,
        source_table: str,
        columns: Tuple[str, ...],
        predicate: Optional[ast.Expression],
    ) -> Article:
        """Find a publication article matching a cached view, or create one.

        "When a cached view is created, we automatically create a
        replication subscription (and publication if needed)" — §4.
        """
        predicate_text = format_expression(predicate) if predicate is not None else ""
        wanted = (
            source_table.lower(),
            tuple(column.lower() for column in columns),
            predicate_text,
        )
        for article in self.publication.articles.values():
            have = (
                article.source_table.lower(),
                tuple(column.lower() for column in article.columns),
                format_expression(article.predicate) if article.predicate is not None else "",
            )
            if have == wanted:
                return article
        article = Article(
            name=f"art_{next(self._article_counter)}_{view_name}",
            source_table=source_table,
            columns=columns,
            predicate=predicate,
        )
        schema = self.backend_database.catalog.get_table(source_table).schema
        article.bind(schema)
        self.publication.add_article(article)
        return article

    def drain(self, cache: CacheServer) -> None:
        """Bring ``cache`` to the distribution frontier, log drained first.

        A new cached view joins the cache's other views at *their*
        position: everything up to the frontier arrives in its snapshot,
        everything after through the stream. A cache that cannot catch
        up (stalled or killed agent) cannot take a snapshot.
        """
        self.log_reader.poll()
        agent = cache.agent
        if agent is not None:
            agent.poll()
        self._settle()
        if cache.subscriber.last_sequence < self.distributor.distribution_db.last_sequence:
            raise ReplicationError(
                f"cache {cache.name!r} is behind the distribution frontier; "
                "a cached view cannot be snapshotted until it catches up"
            )

    def snapshot(self, article: Article, target) -> int:
        """Initial population: copy current matching rows into ``target``
        (the new view's storage on a freshly drained cache)."""
        source = self.backend_database.storage_table(article.source_table)
        return target.insert_many(
            row
            for chunk in source.scan_batches(DEFAULT_BATCH_ROWS)
            for row in article.select(chunk)
        )

    # -- faults & resilience ----------------------------------------------------

    def attach_fault_injector(self, injector) -> None:
        """Attach a :class:`repro.faults.FaultInjector`; its virtual-time
        chaos schedule fires from :meth:`tick`. The injector must share
        the deployment clock, or scheduled faults would fire at the wrong
        simulated moments."""
        if injector.clock is not self.clock:
            raise ReplicationError("fault injector must share the deployment clock")
        self.fault_injector = injector

    def failover_connection(
        self,
        cache: CacheServer,
        probe_interval: float = 1.0,
        failback_threshold: int = 2,
    ):
        """An execution target that survives the cache failing
        (``connect(...)`` over it for a connection, as whichever principal).

        Routes statements to ``cache`` while healthy and to the backend
        while not — the paper's availability story made concrete. Health
        means the cache's server is up and no link breaker is stuck open
        (:meth:`CacheServer.healthy`). ``failback_threshold`` consecutive
        healthy probes are required before traffic returns to the cache
        (failback hysteresis — a flapping cache stays failed over).
        """
        from repro.resilience.failover import FailoverRouter

        return FailoverRouter(
            primary=cache,
            fallback=self.backend,
            clock=self.clock,
            fallback_database=self.database_name,
            probe_interval=probe_interval,
            failback_threshold=failback_threshold,
            registry=cache.server.metrics,
        )

    # -- driving replication ---------------------------------------------------

    def tick(self, advance: float = 0.0) -> Dict[str, int]:
        """Advance virtual time and run due replication work.

        Returns counters: transactions distributed and applied this tick.
        """
        if advance:
            self.clock.advance(advance)
        now = self.clock.now()
        if self.fault_injector is not None:
            self.fault_injector.tick(now)
            now = self.clock.now()  # injected latency may have advanced it
        distributed = 0
        if now - self._last_logreader_poll >= self.logreader_interval:
            self._last_logreader_poll = now
            distributed = self.log_reader.poll()
        applied = 0
        for agent in self.distributor.agents:
            try:
                applied += agent.run_due(now)
            except ReplicationError:
                # Contained: the subscriber undid the failed transaction
                # and its watermark still points at the last fully-applied
                # one, so the next due poll re-delivers the unapplied
                # suffix. The agent counted it (replication.apply_failures).
                pass
        self._settle()
        if (
            self.stats_refresh_interval is not None
            and now - self._last_stats_refresh >= self.stats_refresh_interval
        ):
            self._last_stats_refresh = now
            self.backend_database.analyze_all()
            self.refresh_statistics()
        return {"distributed": distributed, "applied": applied}

    def checkpoint_wal(self) -> int:
        """Truncate the backend WAL through the log reader's watermark.

        Everything up to the watermark has been copied into the
        distribution database (and the distributor purges *its* store once
        every subscriber consumed it), so the log prefix is no longer
        needed for replication. Bounds log growth on long runs; returns
        the number of records discarded.
        """
        return self.backend_database.wal.truncate_through(self.log_reader.watermark_lsn)

    def sync(self) -> None:
        """Drain replication completely (tests and interactive use)."""
        self.log_reader.poll()
        self._last_logreader_poll = self.clock.now()
        for agent in self.distributor.agents:
            agent.poll(self.clock.now())
        self._settle()

    def _settle(self) -> None:
        """After a round of polls: a subscriber that has consumed the
        whole stream is current as of the reader's scan (the freshness
        sync point), and what every subscriber has consumed is purged
        from the distribution database (SQL Server's cleanup job)."""
        distribution_db = self.distributor.distribution_db
        low_water = frontier = distribution_db.last_sequence
        for cache in self.cache_servers:
            subscriber = cache.subscriber
            if subscriber.last_sequence == frontier:
                subscriber.synced_through = self.log_reader.last_scan_time
            else:
                low_water = min(low_water, subscriber.last_sequence)
        distribution_db.purge_through(low_water)

    # -- measurements (experiments 2 & 3) -----------------------------------------

    def average_replication_latency(self) -> Optional[float]:
        samples = [
            applied - committed
            for cache in self.cache_servers
            for committed, applied in cache.subscriber.latency_samples
        ]
        if not samples:
            return None
        return sum(samples) / len(samples)

    def reset_replication_measurements(self) -> None:
        for cache in self.cache_servers:
            cache.subscriber.latency_samples.clear()

    def set_log_reader_enabled(self, enabled: bool) -> None:
        """Experiment 2's switch: turning the log reader off removes all
        replication overhead from the backend."""
        self.log_reader.enabled = enabled
