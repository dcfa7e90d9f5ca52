"""Replication batching: many pending transactions, one subscriber trip."""

import pytest

from repro import MTCacheDeployment

from tests.conftest import make_shop_backend


@pytest.fixture
def env():
    backend = make_shop_backend(customers=50, orders=100)
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW vcust AS "
        "SELECT cid, cname, segment FROM customer WHERE cid <= 30"
    )
    return backend, deployment, cache


def view_rows(cache):
    return cache.execute("SELECT cid, cname, segment FROM vcust ORDER BY cid").rows


def agent_for(deployment, cache):
    return cache.agent


class TestBatchedApply:
    def test_backlog_applies_in_one_round_trip(self, env):
        backend, deployment, cache = env
        agent = agent_for(deployment, cache)
        trips_before = agent.round_trips
        for i in range(1, 6):
            backend.execute(
                f"UPDATE customer SET cname = 'batch{i}' WHERE cid = {i}",
                database="shop",
            )
        deployment.log_reader.poll()
        applied = agent.poll(deployment.clock.now())
        assert applied == 5
        assert agent.round_trips == trips_before + 1
        assert agent.round_trips_saved >= 4
        rows = view_rows(cache)
        for i in range(1, 6):
            assert (i, f"batch{i}", rows[i - 1][2]) in rows

    def test_savings_credited_to_subscriber_server(self, env):
        backend, deployment, cache = env
        before = cache.server.total_work.round_trips_saved
        for i in range(1, 4):
            backend.execute(
                f"UPDATE customer SET cname = 'w{i}' WHERE cid = 10", database="shop"
            )
        deployment.log_reader.poll()
        agent_for(deployment, cache).poll(deployment.clock.now())
        assert cache.server.total_work.round_trips_saved == before + 2

    def test_commit_order_preserved_within_batch(self, env):
        """Insert→update→delete of one row across three transactions can
        only converge if the batch replays them in commit order."""
        backend, deployment, cache = env
        backend.execute("DELETE FROM orders WHERE o_cid = 20", database="shop")
        backend.execute("DELETE FROM customer WHERE cid = 20", database="shop")
        backend.execute(
            "INSERT INTO customer VALUES (20, 'reborn', 'a', 'base')", database="shop"
        )
        backend.execute(
            "UPDATE customer SET cname = 'renamed' WHERE cid = 20", database="shop"
        )
        deployment.log_reader.poll()
        applied = agent_for(deployment, cache).poll(deployment.clock.now())
        assert applied >= 3
        rows = view_rows(cache)
        assert len(rows) == 30
        assert (20, "renamed", "base") in rows

    def test_interleaved_rows_stay_consistent(self, env):
        """A batch touching many rows leaves the view equal to the source."""
        backend, deployment, cache = env
        for i in range(1, 31):
            backend.execute(
                f"UPDATE customer SET segment = 'tier{i % 3}' WHERE cid = {i}",
                database="shop",
            )
        deployment.sync()
        source = backend.execute(
            "SELECT cid, cname, segment FROM customer WHERE cid <= 30 ORDER BY cid",
            database="shop",
        ).rows
        assert view_rows(cache) == source

    def test_latency_samples_per_transaction(self, env):
        """Batching must not collapse latency accounting: one sample per
        applied transaction, commit timestamps intact."""
        backend, deployment, cache = env
        subscriber = cache.subscriber
        samples_before = len(subscriber.latency_samples)
        for i in range(1, 4):
            backend.execute(
                f"UPDATE customer SET cname = 'l{i}' WHERE cid = {i}", database="shop"
            )
            deployment.clock.advance(0.05)
        deployment.log_reader.poll()
        agent_for(deployment, cache).poll(deployment.clock.now())
        assert len(subscriber.latency_samples) == samples_before + 3
        commits = [c for c, _ in subscriber.latency_samples[-3:]]
        assert commits == sorted(commits)

    def test_empty_backlog_is_not_a_round_trip(self, env):
        _, deployment, cache = env
        agent = agent_for(deployment, cache)
        deployment.sync()
        trips = agent.round_trips
        assert agent.poll(deployment.clock.now()) == 0
        assert agent.round_trips == trips

    def test_batches_applied_counter(self, env):
        backend, deployment, cache = env
        agent = agent_for(deployment, cache)
        before = agent.round_trips
        backend.execute(
            "UPDATE customer SET cname = 'x' WHERE cid = 2", database="shop"
        )
        backend.execute(
            "UPDATE customer SET cname = 'y' WHERE cid = 3", database="shop"
        )
        deployment.log_reader.poll()
        agent.poll(deployment.clock.now())
        assert agent.round_trips == before + 1
        assert cache.subscriptions["vcust"].commands_applied == 2
