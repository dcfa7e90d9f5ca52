"""A cache is always the backend at one committed prefix.

The paper's contract (§2.2): a subscriber "is always transactionally
consistent, just possibly stale". With several cached views on one cache
that means *all of them together* equal their defining SELECTs evaluated
on one and the same backend state — the one after the transaction the
cache's watermark names — after every tick, whatever faults hit the
replication pipeline in between. This is the first slice of the ROADMAP
history checker: the per-cache prefix precondition.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MTCacheDeployment, Server
from repro.faults import FaultInjector
from repro.sql.formatter import format_statement

from tests.conftest import make_shop_backend

VIEWS = (
    "CREATE CACHED VIEW cv_orders AS SELECT oid, o_cid, total FROM orders",
    "CREATE CACHED VIEW cv_ol AS SELECT olid, ol_oid, qty FROM order_line",
    "CREATE CACHED VIEW cv_cust AS SELECT cid, spent FROM customer WHERE cid <= 5",
)


def build_env(views):
    backend = Server("backend")
    backend.create_database("shop")
    backend.execute(
        """
        CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(20), spent FLOAT);
        CREATE TABLE orders (oid INT PRIMARY KEY, o_cid INT NOT NULL, total FLOAT);
        CREATE TABLE order_line (olid INT PRIMARY KEY, ol_oid INT NOT NULL, qty INT);
        """
    )
    database = backend.database("shop")
    database.bulk_load("customer", [(i, f"c{i}", 0.0) for i in range(1, 11)])
    database.analyze_all()
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    for ddl in VIEWS[:views]:
        cache.create_cached_view(ddl)
    injector = FaultInjector(deployment.clock, seed=views)
    deployment.attach_fault_injector(injector)
    return backend, deployment, cache, injector


def held(cache):
    """What the cache holds right now, view by view."""
    return {
        name: sorted(row for _, row in cache.database.storage_table(name).scan())
        for name in cache.subscriptions
    }


def defined(backend, cache):
    """What every view's defining SELECT returns on the backend right now."""
    return {
        name: sorted(
            backend.execute(
                format_statement(cache.database.catalog.get_view(name).select),
                database="shop",
            ).rows
        )
        for name in cache.subscriptions
    }


class Shop:
    """Multi-statement backend transactions spanning every cached table,
    each distributed at once so sequence N names the state after it."""

    def __init__(self, backend, deployment, cache):
        self.backend, self.deployment, self.cache = backend, deployment, cache
        self.orders = []
        self.next_oid = self.next_olid = 1
        self.history = {0: defined(backend, cache)}

    def _commit(self, statements):
        self.backend.execute(
            "BEGIN TRANSACTION; " + "; ".join(statements) + "; COMMIT", database="shop"
        )
        self.deployment.log_reader.poll()
        frontier = self.deployment.distributor.distribution_db.last_sequence
        self.history[frontier] = defined(self.backend, self.cache)

    def order(self, lines, cid):
        oid, self.next_oid = self.next_oid, self.next_oid + 1
        statements = [f"INSERT INTO orders VALUES ({oid}, {cid}, {lines * 2.5})"]
        for _ in range(lines):
            statements.append(
                f"INSERT INTO order_line VALUES ({self.next_olid}, {oid}, 1)"
            )
            self.next_olid += 1
        statements.append(
            f"UPDATE customer SET spent = spent + {lines * 2.5} WHERE cid = {cid}"
        )
        self.orders.append(oid)
        self._commit(statements)

    def amend(self, pick):
        if self.orders:
            oid = self.orders[pick % len(self.orders)]
            self._commit(
                [
                    f"UPDATE order_line SET qty = qty + 1 WHERE ol_oid = {oid}",
                    f"UPDATE orders SET total = total + 1 WHERE oid = {oid}",
                ]
            )

    def cancel(self, pick):
        if self.orders:
            oid = self.orders.pop(pick % len(self.orders))
            self._commit(
                [
                    f"DELETE FROM order_line WHERE ol_oid = {oid}",
                    f"DELETE FROM orders WHERE oid = {oid}",
                ]
            )


class Faults:
    """The fault schedule's vocabulary; every fault has its repair, and
    applying either twice is a no-op."""

    def __init__(self, cache, injector):
        self.cache, self.injector = cache, injector
        self.killed = None

    def stall(self, _):
        if self.cache.agent is not None:
            self.injector.stall_agent(self.cache.agent)

    def resume(self, _):
        # A crashed cache's agent stays stalled until the cache restarts.
        if self.cache.agent is not None and self.cache.server.available:
            self.injector.resume_agent(self.cache.agent)

    def wound(self, n):
        names = sorted(self.cache.subscriptions)
        view = self.cache.subscriptions[names[n % len(names)]]
        self.injector.wound_subscription(view, skip=n // len(names), count=1)

    def crash(self, _):
        if self.cache.server.available:
            self.injector.crash_cache(self.cache)

    def restart(self, _):
        if not self.cache.server.available:
            self.injector.restart_cache(self.cache)

    def kill(self, _):
        if self.cache.agent is not None:
            self.killed = self.cache.agent
            self.injector.kill_agent(self.killed)

    def revive(self, _):
        if self.killed is not None:
            self.injector.restart_agent(self.killed)
            self.killed = None

    def heal(self):
        self.injector.clear_rules()
        self.restart(0)
        self.revive(0)
        self.resume(0)


steps = st.lists(
    st.one_of(
        st.tuples(st.just("order"), st.integers(1, 3), st.integers(1, 10)),
        st.tuples(st.just("amend"), st.integers(0, 40), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(0, 40), st.just(0)),
        st.tuples(
            st.sampled_from(
                ["stall", "resume", "wound", "crash", "restart", "kill", "revive"]
            ),
            st.integers(0, 8),
            st.just(0),
        ),
    ),
    min_size=1,
    max_size=24,
)


@pytest.mark.parametrize("views", [2, 3])
@settings(max_examples=150, deadline=None)
@given(steps=steps, advances=st.lists(st.sampled_from([0.1, 0.3, 1.0]), min_size=24, max_size=24))
def test_every_view_holds_the_backend_state_at_the_cache_watermark(views, steps, advances):
    backend, deployment, cache, injector = build_env(views)
    shop = Shop(backend, deployment, cache)
    faults = Faults(cache, injector)
    subscriber = cache.subscriber
    watermark = subscriber.last_sequence

    def check():
        nonlocal watermark
        assert subscriber.last_sequence >= watermark, "watermark went backwards"
        watermark = subscriber.last_sequence
        assert held(cache) == shop.history[watermark], (
            f"views are not the backend state at sequence {watermark}"
        )

    for (kind, a, b), advance in zip(steps, advances):
        if kind == "order":
            shop.order(a, b)
        elif kind in ("amend", "cancel"):
            getattr(shop, kind)(a)
        else:
            getattr(faults, kind)(a)
        deployment.tick(advance)
        check()

    # Every fault repaired, the cache catches up to the backend's present.
    faults.heal()
    deployment.tick(1.0)
    check()
    deployment.sync()
    check()
    assert watermark == max(shop.history)
    assert len(deployment.distributor.distribution_db) == 0
    assert held(cache) == defined(backend, cache)


class TestOneTransactionAcrossTwoViews:
    """The scenario of the issue, spelled out."""

    @pytest.fixture
    def env(self):
        backend, deployment, cache, injector = build_env(2)
        backend.execute(
            "BEGIN TRANSACTION; INSERT INTO orders VALUES (1, 1, 5.0); "
            "INSERT INTO order_line VALUES (1, 1, 2); COMMIT",
            database="shop",
        )
        return backend, deployment, cache, injector

    def test_stalled_agent_holds_both_views_back_together(self, env):
        _, deployment, cache, injector = env
        injector.stall_agent(cache.agent)
        deployment.tick(1.0)
        assert cache.subscriber.last_sequence == 0
        assert held(cache) == {"cv_orders": [], "cv_ol": []}

        injector.resume_agent(cache.agent)
        deployment.tick(1.0)
        assert cache.subscriber.last_sequence == 1
        assert held(cache) == {"cv_orders": [(1, 1, 5.0)], "cv_ol": [(1, 1, 2)]}

    @pytest.mark.parametrize("wounded", ["cv_orders", "cv_ol"])
    def test_failed_apply_on_one_view_undoes_the_other(self, env, wounded):
        _, deployment, cache, injector = env
        injector.wound_subscription(cache.subscriptions[wounded], count=1)
        deployment.tick(1.0)
        # The order never shows without its line, nor the line without
        # its order: the whole transaction is undone on both tables.
        assert cache.subscriber.last_sequence == 0
        assert held(cache) == {"cv_orders": [], "cv_ol": []}

        deployment.tick(1.0)
        assert cache.subscriber.last_sequence == 1
        assert held(cache) == {"cv_orders": [(1, 1, 5.0)], "cv_ol": [(1, 1, 2)]}

    def test_a_view_created_later_joins_the_others_at_their_position(self, env):
        backend, deployment, cache, _ = env
        deployment.log_reader.poll()  # the order is pending, not applied
        cache.create_cached_view(VIEWS[2])
        # Creating the view drained the cache first: no view is ahead.
        assert cache.subscriber.last_sequence == 1
        assert held(cache) == defined(backend, cache)
        deployment.sync()
        assert held(cache) == defined(backend, cache)

    def test_a_cache_that_cannot_catch_up_refuses_a_new_view(self, env):
        from repro.errors import ReplicationError

        _, deployment, cache, injector = env
        injector.stall_agent(cache.agent)
        with pytest.raises(ReplicationError, match="behind"):
            cache.create_cached_view(VIEWS[2])
        assert "cv_cust" not in cache.subscriptions
        assert cache.database.catalog.maybe_view("cv_cust") is None


class TestOneAgentPerCache:
    @pytest.mark.parametrize("caches", [1, 5])
    def test_plain_deployments(self, caches):
        deployment = MTCacheDeployment(make_shop_backend(customers=20, orders=20), "shop")
        for index in range(caches):
            cache = deployment.add_cache_server(f"cache{index}")
            cache.create_cached_view(
                "CREATE CACHED VIEW vcust AS SELECT cid, cname FROM customer"
            )
            cache.create_cached_view(
                "CREATE CACHED VIEW vord AS SELECT oid, o_cid FROM orders"
            )
        assert len(deployment.distributor.agents) == len(deployment.cache_servers) == caches
        assert [a.subscriber for a in deployment.distributor.agents] == [
            c.subscriber for c in deployment.cache_servers
        ]

    @pytest.mark.shard
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_tiers(self, shards):
        from repro.sharding import ShardedDeployment
        from repro.tpcw import TPCWConfig

        sharded = ShardedDeployment(
            config=TPCWConfig(num_items=40, num_ebs=2, seed=5), shards=shards
        )
        deployment = sharded.deployment
        assert len(deployment.distributor.agents) == len(deployment.cache_servers) == shards

    def test_the_watermark_is_the_subscribers_alone(self):
        _, _, cache, _ = build_env(2)
        assert not hasattr(cache.agent, "last_sequence")
        for subscription in cache.subscriptions.values():
            assert not hasattr(subscription, "last_sequence")
        assert cache.subscriber.last_sequence == 0
