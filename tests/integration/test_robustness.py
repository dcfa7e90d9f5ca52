"""Failure injection and robustness tests across subsystems."""

import pytest

from repro import MTCacheDeployment, Server
from repro.engine import procedures
from repro.errors import CatalogError, ConstraintError, ExecutionError
from repro.replication.agent import DistributionAgent

from tests.conftest import make_shop_backend


@pytest.fixture
def env():
    backend = make_shop_backend(customers=60, orders=120)
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW vcust AS SELECT cid, cname, segment FROM customer"
    )
    return backend, deployment, cache


class TestForwardedFailures:
    def test_remote_constraint_violation_propagates(self, env):
        backend, _, cache = env
        with pytest.raises(ConstraintError):
            cache.execute("INSERT INTO customer VALUES (1, 'dup', 'a', 'base')")
        # Backend state unchanged.
        assert (
            backend.execute("SELECT cname FROM customer WHERE cid = 1", database="shop").scalar
            == "cust1"
        )

    def test_remote_failed_statement_is_atomic(self, env):
        backend, _, cache = env
        with pytest.raises(ConstraintError):
            cache.execute(
                "INSERT INTO customer VALUES (500, 'ok', 'a', 'base'), (1, 'dup', 'a', 'base')"
            )
        assert (
            backend.execute(
                "SELECT COUNT(*) FROM customer WHERE cid = 500", database="shop"
            ).scalar
            == 0
        )

    def test_unknown_procedure_without_backend(self):
        plain = Server("lonely")
        plain.create_database("db")
        with pytest.raises(CatalogError, match="no procedure"):
            plain.execute("EXEC ghost")

    def test_unknown_procedure_forwards_and_fails_remotely(self, env):
        backend, _, cache = env
        with pytest.raises(CatalogError):
            cache.execute("EXEC definitelyMissing")


class TestReplicationRobustness:
    def test_agent_poll_is_idempotent(self, env):
        backend, deployment, cache = env
        backend.execute(
            "UPDATE customer SET cname = 'once' WHERE cid = 5", database="shop"
        )
        deployment.sync()
        deployment.sync()
        deployment.sync()
        rows = cache.execute("SELECT COUNT(*) FROM vcust WHERE cname = 'once'").scalar
        assert rows == 1
        assert cache.execute("SELECT COUNT(*) FROM vcust").scalar == 60

    def test_agent_restart_resumes_from_watermark(self, env):
        backend, deployment, cache = env
        backend.execute(
            "UPDATE customer SET cname = 'pre' WHERE cid = 2", database="shop"
        )
        deployment.sync()

        # Simulate an agent crash/restart: replace the agent object; the
        # subscriber's watermark survives, so nothing re-applies and
        # nothing is lost.
        deployment.distributor.agents.remove(cache.agent)
        new_agent = DistributionAgent(cache.subscriber, deployment.distributor, 0.25)
        deployment.distributor.register_agent(new_agent)
        assert cache.agent is new_agent

        backend.execute(
            "UPDATE customer SET cname = 'post' WHERE cid = 3", database="shop"
        )
        deployment.sync()
        assert cache.execute("SELECT cname FROM vcust WHERE cid = 2").scalar == "pre"
        assert cache.execute("SELECT cname FROM vcust WHERE cid = 3").scalar == "post"
        assert cache.execute("SELECT COUNT(*) FROM vcust").scalar == 60

    def test_late_subscriber_gets_snapshot_plus_stream(self, env):
        backend, deployment, cache = env
        backend.execute(
            "UPDATE customer SET cname = 'early' WHERE cid = 7", database="shop"
        )
        deployment.sync()
        assert len(deployment.distributor.distribution_db) == 0  # early commands are gone

        cache2 = deployment.add_cache_server("late_cache")
        cache2.create_cached_view(
            "CREATE CACHED VIEW vcust AS SELECT cid, cname, segment FROM customer"
        )
        # The snapshot covers the pre-subscription history...
        assert cache2.execute("SELECT cname FROM vcust WHERE cid = 7").scalar == "early"
        # ...and the stream covers what follows.
        backend.execute(
            "UPDATE customer SET cname = 'later' WHERE cid = 7", database="shop"
        )
        deployment.sync()
        assert cache2.execute("SELECT cname FROM vcust WHERE cid = 7").scalar == "later"
        assert cache.execute("SELECT cname FROM vcust WHERE cid = 7").scalar == "later"

    def test_three_caches_converge(self, env):
        backend, deployment, first = env
        caches = [first]
        for name in ("c2", "c3"):
            extra = deployment.add_cache_server(name)
            extra.create_cached_view(
                "CREATE CACHED VIEW vcust AS SELECT cid, cname, segment FROM customer"
            )
            caches.append(extra)
        for step in range(10):
            backend.execute(
                f"UPDATE customer SET segment = 'w{step}' WHERE cid = {step + 1}",
                database="shop",
            )
        deployment.sync()
        reference = backend.execute(
            "SELECT cid, segment FROM customer ORDER BY cid", database="shop"
        ).rows
        for cache in caches:
            assert (
                cache.execute("SELECT cid, segment FROM vcust ORDER BY cid").rows
                == reference
            )


class TestPlanInvalidation:
    def test_new_index_invalidates_cached_plans(self, env):
        backend, _, cache = env
        sql = "SELECT cid FROM vcust WHERE cname = 'cust9'"
        before = cache.plan(sql)
        assert "SeqScan" in before.explain()
        # Add an index on the view's backing table via DDL on the cache.
        cache.execute("CREATE INDEX ix_vcust_name ON vcust (cname)")
        after = cache.plan(sql)
        assert after is not before
        assert "ix_vcust_name" in after.explain()

    def test_dropping_cached_view_reroutes_to_backend(self, env):
        backend, deployment, cache = env
        other = deployment.add_cache_server("cache2")
        other.create_cached_view(
            "CREATE CACHED VIEW vcust AS SELECT cid, cname, segment FROM customer"
        )
        sql = "SELECT cname FROM customer WHERE cid = 4"
        assert not cache.plan(sql).uses_remote
        cache.execute("DROP VIEW vcust")
        assert cache.plan(sql).uses_remote
        assert cache.execute(sql).rows == [("cust4",)]
        assert "vcust" not in cache.subscriptions

        # The dropped view no longer takes part in replication: ticks and
        # sync() keep running, the backlog purges and the other cache
        # keeps converging.
        backend.execute(
            "UPDATE customer SET cname = 'after-drop' WHERE cid = 4", database="shop"
        )
        deployment.tick(advance=1.0)
        deployment.tick(advance=1.0)
        deployment.sync()
        assert len(deployment.distributor.distribution_db) == 0
        assert other.execute("SELECT cname FROM vcust WHERE cid = 4").scalar == "after-drop"
        assert cache.execute(sql).rows == [("after-drop",)]


class TestEngineEdgeCases:
    def test_query_against_missing_table(self, env):
        _, _, cache = env
        from repro.errors import BindError

        with pytest.raises((CatalogError, BindError)):
            cache.execute("SELECT x FROM no_such_table")

    def test_unknown_column(self, env):
        _, _, cache = env
        from repro.errors import BindError

        with pytest.raises(BindError):
            cache.execute("SELECT nonexistent FROM customer")

    def test_while_loop_bound(self, monkeypatch):
        # The shipped bound, lowered here so the runaway loop hits it fast.
        assert procedures.MAX_LOOP_ITERATIONS == 1_000_000
        monkeypatch.setattr(procedures, "MAX_LOOP_ITERATIONS", 1_000)
        server = Server("s")
        server.create_database("db")
        server.execute(
            """
            CREATE PROCEDURE forever AS
            BEGIN
                DECLARE @x INT = 1
                WHILE @x > 0
                    SET @x = @x + 1
            END
            """
        )
        with pytest.raises(ExecutionError, match="iteration bound"):
            server.execute("EXEC forever")

    def test_empty_batch_is_noop(self, env):
        _, _, cache = env
        result = cache.execute("   -- just a comment\n")
        assert result.rows == []
