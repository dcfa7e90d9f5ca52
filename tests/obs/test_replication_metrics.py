"""Replication lag gauges, batch stats, last-applied tracking."""


from repro.obs import replication_metrics
from repro.obs.export import deployment_snapshot


def _agent(cache):
    return cache.agent


class TestLagGauges:
    def test_lag_counts_pending_transactions(self, deployment, cache):
        backend = deployment.backend
        backend.execute("UPDATE customer SET cname = 'X1' WHERE cid = 1")
        backend.execute("UPDATE customer SET cname = 'X2' WHERE cid = 2")
        deployment.log_reader.poll()
        agent = _agent(cache)
        values = replication_metrics.update_lag_gauges(agent)
        assert values["lag_transactions"] == 2
        assert values["queue_depth"] == 2

        registry = cache.server.metrics
        labels = {"subscriber": agent.subscriber.name}
        assert (
            registry.gauge("replication.lag_transactions", labels=labels).value == 2
        )

        agent.poll(now=deployment.clock.now())
        values = replication_metrics.update_lag_gauges(agent)
        assert values["lag_transactions"] == 0

    def test_lag_seconds_ages_between_polls(self, deployment, cache):
        deployment.sync()
        agent = _agent(cache)
        before = replication_metrics.update_lag_gauges(agent)
        deployment.clock.advance(5.0)
        after = replication_metrics.update_lag_gauges(agent)
        assert after["lag_seconds"] >= before["lag_seconds"] + 5.0 - 1e-9


class TestBatchStats:
    def test_batch_size_histogram_and_counters(self, deployment, cache):
        backend = deployment.backend
        for cid in (1, 2, 3):
            backend.execute(f"UPDATE customer SET cname = 'B{cid}' WHERE cid = {cid}")
        deployment.log_reader.poll()
        agent = _agent(cache)
        applied = agent.poll(now=deployment.clock.now())
        assert applied == 3

        registry = cache.server.metrics
        labels = {"subscriber": agent.subscriber.name}
        histogram = registry.histogram(
            "replication.batch_size",
            buckets=replication_metrics.BATCH_SIZE_BUCKETS,
            labels=labels,
        )
        assert histogram.count == 1
        assert histogram.sum == 3
        assert (
            registry.counter("replication.transactions_applied", labels=labels).value
            == 3
        )
        assert registry.counter("replication.round_trips", labels=labels).value == 1


class TestLastApplied:
    """Satellite: the subscriber records the newest applied transaction."""

    def test_last_applied_updates_on_poll(self, deployment, cache):
        agent, subscriber = _agent(cache), cache.subscriber
        assert subscriber.last_sequence == 0
        backend = deployment.backend
        backend.execute("UPDATE customer SET cname = 'Y' WHERE cid = 7")
        deployment.log_reader.poll()
        frontier = deployment.distributor.distribution_db.last_sequence
        (transaction,) = deployment.distributor.distribution_db.read_after(0)
        agent.poll(now=deployment.clock.now())

        assert subscriber.last_sequence == frontier
        assert subscriber.last_applied_commit_ts == transaction.commit_timestamp
        assert subscriber.last_applied_origin_id == transaction.origin_transaction_id
        info = subscriber.last_applied()
        assert info["subscriber"] == subscriber.name == "cache1"
        assert info["sequence"] == frontier
        assert info["applied_at"] == subscriber.last_apply_time

    def test_idle_poll_does_not_move_last_applied(self, deployment, cache):
        deployment.sync()
        agent = _agent(cache)
        before = cache.subscriber.last_applied()
        agent.poll(now=deployment.clock.now())
        assert cache.subscriber.last_applied() == before


class TestDeploymentSample:
    def test_sample_covers_every_subscription(self, deployment, cache):
        deployment.sync()
        samples = replication_metrics.sample(deployment)
        assert set(samples) == {
            agent.subscriber.name for agent in deployment.distributor.agents
        }
        assert set(samples) == {cache.name for cache in deployment.cache_servers}
        for values in samples.values():
            assert {"lag_transactions", "lag_seconds", "queue_depth"} <= set(values)

    def test_deployment_snapshot_includes_replication(self, deployment, cache):
        backend = deployment.backend
        backend.execute("UPDATE customer SET cname = 'Z' WHERE cid = 9")
        deployment.clock.advance(1.0)
        deployment.sync()
        snap = deployment_snapshot(deployment)
        assert snap["replication"]["subscribers"]
        assert snap["replication"]["transactions_distributed"] >= 1
        assert snap["backend"]["metrics"]["counters"]
        assert snap["caches"][0]["server"] == "cache1"


class TestLagRollup:
    def test_rollup_groups_by_subscriber_server(self, deployment, cache):
        second = deployment.add_cache_server("cache2")
        second.create_cached_view(
            "CREATE CACHED VIEW Cust2 AS "
            "SELECT cid, cname, caddress FROM customer WHERE cid <= 50"
        )
        deployment.sync()
        samples = replication_metrics.sample(deployment)
        assert set(samples) == {"cache1", "cache2"}
        rollup = replication_metrics.rollup(deployment, samples=samples)
        assert rollup["lag_seconds_max"] == max(
            values["lag_seconds"] for values in samples.values()
        )
        assert rollup["lag_seconds_max"] >= rollup["lag_seconds_mean"] >= 0.0
        assert rollup["lag_transactions_max"] >= rollup["lag_transactions_mean"]

    def test_rollup_publishes_tier_gauges_on_backend(self, deployment, cache):
        deployment.sync()
        backend = deployment.backend
        replication_metrics.rollup(deployment)
        snapshot = backend.metrics.snapshot()
        gauges = snapshot["gauges"]
        assert "replication.tier_lag_seconds_max" in gauges
        assert "replication.tier_lag_seconds_mean" in gauges
        assert "replication.tier_lag_transactions_max" in gauges
        assert "replication.subscriber_lag_seconds{subscriber=cache1}" in gauges

    def test_rollup_sees_backlogged_subscription(self, deployment, cache):
        backend = deployment.backend
        for cid in range(1, 6):
            backend.execute(
                f"UPDATE customer SET cname = 'lag{cid}' WHERE cid = {cid}"
            )
        # Committed but not yet distributed/applied: the rollup's max must
        # reflect the backlog once the log reader has shipped commands.
        deployment.log_reader.poll()
        rollup = replication_metrics.rollup(deployment)
        assert rollup["lag_transactions_max"] >= 1
        deployment.sync()
        drained = replication_metrics.rollup(deployment)
        assert drained["lag_transactions_max"] == 0

    def test_deployment_snapshot_includes_rollup(self, deployment, cache):
        deployment.sync()
        snap = deployment_snapshot(deployment)
        rollup = snap["replication"]["lag_rollup"]
        assert "cache1" in snap["replication"]["subscribers"]
        assert rollup["lag_seconds_mean"] >= 0.0
