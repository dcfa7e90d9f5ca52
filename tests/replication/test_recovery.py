"""Replication recovery: crash mid-batch, stalled/killed agents, watermarks.

The contract under test is exactly-once apply at transaction granularity:
a failure partway through a batch (or partway through one transaction)
leaves the cache's watermark at the last *fully applied*
transaction, the partial transaction undone — so the next poll
re-delivers precisely the unapplied suffix, never a duplicate.
"""

import pytest

from repro import MTCacheDeployment
from repro.errors import ReplicationError
from repro.faults import FaultInjector

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
    injector = FaultInjector(deployment.clock, seed=11)
    deployment.attach_fault_injector(injector)
    return backend, deployment, cache, injector


def rename(backend, cid, name):
    backend.execute(
        f"UPDATE customer SET cname = '{name}' WHERE cid = {cid}", database="shop"
    )


def cache_name(cache, cid):
    return cache.execute(f"SELECT cname FROM vcust WHERE cid = {cid}").scalar


def apply_failures(cache):
    return cache.server.metrics.counter(
        "replication.apply_failures", labels={"subscriber": cache.subscriber.name}
    ).value


class TestFullPurge:
    """The distribution frontier is the last sequence ever assigned, also
    once every subscriber consumed everything and the store is empty."""

    def test_the_frontier_survives_a_full_purge(self, env):
        backend, deployment, cache, _ = env
        distribution_db = deployment.distributor.distribution_db
        start = distribution_db.last_sequence
        for cid in (1, 2, 3):
            rename(backend, cid, f"p{cid}")
        deployment.sync()  # applied, then purged
        assert len(distribution_db) == 0
        assert distribution_db.last_sequence == cache.subscriber.last_sequence == start + 3
        assert distribution_db.read_after(start + 3) == []

    def test_a_cache_provisioned_after_a_full_purge_gets_the_next_transaction_once(self, env):
        backend, deployment, _, _ = env
        rename(backend, 1, "before")
        deployment.sync()
        distribution_db = deployment.distributor.distribution_db
        frontier = distribution_db.last_sequence
        assert frontier > 0 and len(distribution_db) == 0
        late = deployment.add_cache_server("cache2")
        late.create_cached_view(
            "CREATE CACHED VIEW vcust AS "
            "SELECT cid, cname, segment FROM customer WHERE cid <= 30"
        )
        assert late.subscriber.last_sequence == frontier
        applied = late.agent.transactions_applied
        rename(backend, 1, "after")
        deployment.sync()
        assert late.agent.transactions_applied == applied + 1
        assert late.subscriber.last_sequence == frontier + 1
        assert cache_name(late, 1) == "after"


class TestCrashMidBatch:
    def test_failed_batch_redelivers_exactly_the_unapplied_suffix(self, env):
        backend, deployment, cache, injector = env
        sub = cache.subscriptions["vcust"]
        subscriber, agent = cache.subscriber, cache.agent

        # Three single-command transactions...
        for cid, name in ((1, "a1"), (2, "a2"), (3, "a3")):
            rename(backend, cid, name)
        deployment.log_reader.poll()

        # ...and a fault on the second command of the batch.
        injector.wound_subscription(sub, skip=1, count=1)
        watermark_before = subscriber.last_sequence
        with pytest.raises(ReplicationError):
            agent.poll(deployment.clock.now())
        assert apply_failures(cache) == 1

        # Transaction 1 applied; the watermark sits right after it.
        assert cache_name(cache, 1) == "a1"
        assert cache_name(cache, 2) == "cust2"
        assert subscriber.last_sequence == watermark_before + 1
        pending = deployment.distributor.distribution_db.read_after(
            subscriber.last_sequence
        )
        assert len(pending) == 2  # exactly the unapplied suffix

        # The next poll applies just those two — no duplicates, no gaps.
        applied = agent.poll(deployment.clock.now())
        assert applied == 2
        assert cache_name(cache, 2) == "a2"
        assert cache_name(cache, 3) == "a3"
        assert not deployment.distributor.distribution_db.read_after(
            subscriber.last_sequence
        )

    def test_failure_inside_a_transaction_undoes_its_partial_commands(self, env):
        backend, deployment, cache, injector = env
        sub = cache.subscriptions["vcust"]
        subscriber, agent = cache.subscriber, cache.agent

        # One transaction with two commands.
        backend.execute(
            "BEGIN TRANSACTION; "
            "UPDATE customer SET cname = 'b1' WHERE cid = 1; "
            "UPDATE customer SET cname = 'b2' WHERE cid = 2; "
            "COMMIT",
            database="shop",
        )
        deployment.log_reader.poll()

        # Fault lands on the second command: mid-transaction.
        injector.wound_subscription(sub, skip=1, count=1)
        watermark_before = subscriber.last_sequence
        with pytest.raises(ReplicationError):
            agent.poll(deployment.clock.now())

        # The first command's effect was rolled back: the subscriber
        # never exposes half a transaction.
        assert cache_name(cache, 1) == "cust1"
        assert cache_name(cache, 2) == "cust2"
        assert subscriber.last_sequence == watermark_before

        # Redelivery applies the whole transaction exactly once.
        agent.poll(deployment.clock.now())
        assert cache_name(cache, 1) == "b1"
        assert cache_name(cache, 2) == "b2"

    def test_deployment_tick_contains_apply_failures(self, env):
        backend, deployment, cache, injector = env
        sub = cache.subscriptions["vcust"]
        rename(backend, 5, "c5")
        injector.wound_subscription(sub, count=1)
        # tick() must not explode the simulation loop; it counts and
        # moves on, and the following tick catches the cache up.
        deployment.tick(advance=1.0)
        assert apply_failures(cache) == 1
        deployment.tick(advance=1.0)
        assert cache_name(cache, 5) == "c5"


class TestAgentOutages:
    def test_stalled_agent_freezes_watermark_then_catches_up(self, env):
        backend, deployment, cache, injector = env
        agent, subscriber = cache.agent, cache.subscriber

        injector.stall_agent(agent)
        rename(backend, 7, "d7")
        rename(backend, 8, "d8")
        watermark = subscriber.last_sequence
        deployment.tick(advance=1.0)
        assert subscriber.last_sequence == watermark  # frozen during the stall
        assert cache_name(cache, 7) == "cust7"

        injector.resume_agent(agent)
        deployment.tick(advance=1.0)
        assert cache_name(cache, 7) == "d7"
        assert cache_name(cache, 8) == "d8"
        assert subscriber.last_sequence > watermark

    def test_killed_agent_restarts_from_the_watermark(self, env):
        backend, deployment, cache, injector = env
        agent = cache.agent

        rename(backend, 9, "e9")
        deployment.sync()
        assert cache_name(cache, 9) == "e9"

        injector.kill_agent(agent)
        assert agent not in deployment.distributor.agents
        assert cache.agent is None
        rename(backend, 9, "e9b")
        rename(backend, 10, "e10")
        deployment.tick(advance=1.0)
        assert cache_name(cache, 9) == "e9"  # nobody is applying

        replacement = injector.restart_agent(agent)
        assert replacement.subscriber is cache.subscriber
        assert cache.agent is replacement
        deployment.tick(advance=1.0)
        # The replacement resumed from the shared watermark: both changes
        # arrive, each exactly once.
        assert cache_name(cache, 9) == "e9b"
        assert cache_name(cache, 10) == "e10"

    def test_crashed_cache_stops_apply_and_lag_climbs(self, env):
        backend, deployment, cache, injector = env
        from repro.obs import replication_metrics

        injector.crash_cache(cache)
        rename(backend, 11, "f11")
        deployment.tick(advance=2.0)
        assert cache.agent.stalled
        lag = replication_metrics.sample(deployment)
        (values,) = lag.values()
        assert values["lag_transactions"] >= 1

        injector.restart_cache(cache)
        deployment.tick(advance=1.0)
        assert cache_name(cache, 11) == "f11"
        lag = replication_metrics.sample(deployment)
        (values,) = lag.values()
        assert values["lag_transactions"] == 0
