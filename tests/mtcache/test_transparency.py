"""Transparency: the application never changes, only the ODBC source.

This is the paper's central claim — caching must be indistinguishable from
talking to the backend, modulo bounded staleness.
"""

import pytest

from repro import MTCacheDeployment
from repro.mtcache.odbc import OdbcSourceRegistry

from tests.conftest import make_shop_backend


@pytest.fixture
def env():
    backend = make_shop_backend()
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW vcust AS SELECT cid, cname, segment FROM customer"
    )
    cache.create_cached_view(
        "CREATE CACHED VIEW vorders AS SELECT oid, o_cid, total FROM orders"
    )
    registry = OdbcSourceRegistry()
    registry.register("shopdsn", backend, "shop")
    return backend, deployment, cache, registry


QUERIES = [
    "SELECT cname FROM customer WHERE cid = 17",
    "SELECT COUNT(*) FROM customer WHERE segment = 'gold'",
    "SELECT TOP 5 c.cname, SUM(o.total) AS s FROM customer c "
    "JOIN orders o ON o.o_cid = c.cid GROUP BY c.cname ORDER BY s DESC, c.cname",
    "SELECT cid FROM customer WHERE cid BETWEEN 10 AND 15 ORDER BY cid",
    "SELECT segment, COUNT(*) AS n FROM customer GROUP BY segment ORDER BY segment",
    "SELECT caddress FROM customer WHERE cid = 3",  # uncached column
]


class TestOdbcRedirection:
    def test_identical_results_before_and_after_redirect(self, env):
        backend, deployment, cache, registry = env
        before = {}
        connection = registry.connect("shopdsn")
        for sql in QUERIES:
            before[sql] = connection.cursor().execute(sql).result.rows
        # The configuration change: redirect the DSN to the cache server.
        registry.redirect("shopdsn", cache.server, "shop")
        connection = registry.connect("shopdsn")
        for sql in QUERIES:
            assert connection.cursor().execute(sql).result.rows == before[sql], sql

    def test_application_cannot_tell_servers_apart_functionally(self, env):
        backend, deployment, cache, registry = env
        registry.redirect("shopdsn", cache.server, "shop")
        connection = registry.connect("shopdsn")
        # The app writes and (after propagation) reads its own write.
        connection.cursor().execute("UPDATE customer SET cname = 'written' WHERE cid = 50")
        deployment.sync()
        assert (
            connection.cursor().execute("SELECT cname FROM customer WHERE cid = 50").result.scalar
            == "written"
        )

    def test_target_of_reports_current_server(self, env):
        backend, _, cache, registry = env
        assert registry.target_of("shopdsn") == "backend"
        registry.redirect("shopdsn", cache.server, "shop")
        assert registry.target_of("shopdsn") == "cache1"

    def test_unknown_source(self, env):
        _, _, _, registry = env
        from repro.errors import DistributedError

        with pytest.raises(DistributedError):
            registry.connect("nope")
        with pytest.raises(DistributedError):
            registry.redirect("nope", None)


class TestConsistencyUnderUpdates:
    def test_cache_converges_to_backend_state(self, env):
        """After arbitrary update traffic plus a sync, every query answers
        identically on cache and backend (transactional consistency)."""
        backend, deployment, cache, _ = env
        import random

        rng = random.Random(5)
        for step in range(40):
            choice = rng.random()
            cid = rng.randint(1, 200)
            if choice < 0.5:
                backend.execute(
                    f"UPDATE customer SET segment = 'seg{step % 4}' WHERE cid = {cid}",
                    database="shop",
                )
            elif choice < 0.75:
                backend.execute(
                    f"UPDATE orders SET total = total + 1 WHERE o_cid = {cid}",
                    database="shop",
                )
            else:
                backend.execute(
                    f"DELETE FROM orders WHERE oid = {rng.randint(1, 400)}",
                    database="shop",
                )
            deployment.clock.advance(0.05)
            deployment.tick()
        deployment.clock.advance(2.0)
        deployment.sync()
        for sql in QUERIES:
            backend_rows = backend.execute(sql, database="shop").rows
            cache_rows = cache.execute(sql).rows
            assert cache_rows == backend_rows, sql

    def test_stale_reads_are_consistent_snapshots(self, env):
        """Before a sync, the cache may be stale but must reflect a state
        that actually existed (whole transactions only)."""
        backend, deployment, cache, _ = env
        deployment.sync()
        from repro.engine import Session

        session = Session()
        backend.execute("BEGIN TRANSACTION", session=session, database="shop")
        backend.execute(
            "UPDATE customer SET segment = 'A' WHERE cid = 1", session=session, database="shop"
        )
        backend.execute(
            "UPDATE customer SET segment = 'A' WHERE cid = 2", session=session, database="shop"
        )
        backend.execute("COMMIT", session=session, database="shop")
        # Without sync: the cache shows both rows in their OLD state.
        rows = cache.execute(
            "SELECT segment FROM vcust WHERE cid <= 2 ORDER BY cid"
        ).rows
        assert rows == [("base",), ("base",)]
        deployment.sync()
        rows = cache.execute(
            "SELECT segment FROM vcust WHERE cid <= 2 ORDER BY cid"
        ).rows
        assert rows == [("A",), ("A",)]


class TestPrincipalsSurviveTheCache:
    """What the backend denies a principal, every path through a cache
    denies too — the hops that run as ``dbo`` must not lend it out."""

    @pytest.fixture
    def secret(self, env):
        backend, deployment, cache, _ = env
        backend.execute(
            """
            CREATE TABLE secret (s VARCHAR(10));
            INSERT INTO secret VALUES ('x');
            CREATE PROCEDURE getSecret AS BEGIN SELECT s FROM secret END
            """,
            database="shop",
        )
        deployment.refresh_catalog()
        minimal = deployment.add_cache_server("mini", shadow_tables=["customer"])
        return backend, cache, minimal

    @pytest.mark.parametrize("shadow", ["full", "minimal"])
    def test_forwarded_exec_checks_execute_permission(self, secret, shadow):
        from repro.client import connect
        from repro.errors import PermissionError_

        backend, full, minimal = secret
        cache = full if shadow == "full" else minimal
        assert cache.database.catalog.maybe_procedure("getSecret") is None
        assert connect(cache, principal="dbo").cursor().execute("EXEC getSecret").fetchall() == [("x",)]
        for target in (backend, cache):
            with pytest.raises(PermissionError_, match="lacks EXECUTE on 'getSecret'"):
                connect(target, database="shop", principal="alice").cursor().execute("EXEC getSecret")

    def test_whole_statement_fallbacks_run_as_the_caller(self, secret):
        from repro.client import connect
        from repro.errors import PermissionError_

        backend, cache, minimal = secret
        # forward.statement: the minimal shadow cannot bind ``orders``, so
        # the whole batch — the part not yet checked included — forwards.
        backend.execute("GRANT SELECT ON orders TO alice", database="shop")
        minimal.database.catalog.permissions = backend.database("shop").catalog.permissions.copy()
        with pytest.raises(PermissionError_):
            connect(minimal, principal="alice").cursor().execute(
                "SELECT COUNT(*) FROM orders; SELECT s FROM secret"
            )
        assert minimal.statements_forwarded == 1
        # failover.read: the cache's own server is down.
        cache.server.crash()
        assert connect(cache, principal="dbo").cursor().execute("SELECT s FROM secret").fetchall() == [("x",)]
        alice = connect(cache, principal="alice").cursor()
        with pytest.raises(PermissionError_):
            alice.execute("SELECT s FROM secret")
        assert cache.fallback_reads == 2
