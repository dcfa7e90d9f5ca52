"""Catalog refresh and minimal shadowing (paper §7 future work)."""

import pytest

from repro import MTCacheDeployment

from tests.conftest import make_shop_backend


@pytest.fixture
def env():
    backend = make_shop_backend(customers=50, orders=50)
    deployment = MTCacheDeployment(backend, "shop")
    return backend, deployment


class TestCatalogRefresh:
    def test_new_table_propagates(self, env):
        backend, deployment = env
        cache = deployment.add_cache_server("c1")
        backend.execute(
            "CREATE TABLE promo (pid INT PRIMARY KEY, blurb VARCHAR(50))",
            database="shop",
        )
        backend.execute("INSERT INTO promo VALUES (1, 'sale')", database="shop")
        backend.database("shop").analyze("promo")

        # Before the refresh the shadow cannot bind the new table.
        from repro.errors import BindError, CatalogError

        with pytest.raises((BindError, CatalogError)):
            cache.execute("SELECT blurb FROM promo")

        added = deployment.refresh_catalog()
        assert added["tables"] == 1
        # After: the query binds locally and routes to the backend.
        assert cache.execute("SELECT blurb FROM promo").rows == [("sale",)]
        assert cache.database.is_remote_table("promo")

    def test_new_index_propagates(self, env):
        backend, deployment = env
        cache = deployment.add_cache_server("c1")
        backend.execute(
            "CREATE INDEX ix_customer_name ON customer (cname)", database="shop"
        )
        added = deployment.refresh_catalog()
        assert added["indexes"] == 1
        assert "ix_customer_name" in cache.database.catalog.indexes

    def test_refresh_is_idempotent(self, env):
        backend, deployment = env
        deployment.add_cache_server("c1")
        backend.execute(
            "CREATE TABLE promo (pid INT PRIMARY KEY)", database="shop"
        )
        first = deployment.refresh_catalog()
        second = deployment.refresh_catalog()
        assert first["tables"] == 1
        assert second == {"tables": 0, "indexes": 0, "views": 0}

    def test_refresh_updates_statistics(self, env):
        backend, deployment = env
        cache = deployment.add_cache_server("c1")
        backend.execute("DELETE FROM customer WHERE cid > 10", database="shop")
        backend.database("shop").analyze("customer")
        deployment.refresh_catalog()
        assert cache.database.stats_for("customer").row_count == 10


class TestMinimalShadow:
    def test_only_requested_tables_shadowed(self, env):
        backend, deployment = env
        cache = deployment.add_cache_server("mini", shadow_tables=["customer"])
        assert cache.database.catalog.maybe_table("customer") is not None
        assert cache.database.catalog.maybe_table("orders") is None
        assert cache.minimal_shadow

    def test_cached_view_on_shadowed_table(self, env):
        backend, deployment = env
        cache = deployment.add_cache_server("mini", shadow_tables=["customer"])
        cache.create_cached_view(
            "CREATE CACHED VIEW mv AS SELECT cid, cname FROM customer WHERE cid <= 20"
        )
        assert cache.execute("SELECT COUNT(*) FROM mv").scalar == 20
        planned = cache.plan("SELECT cname FROM customer WHERE cid = 3")
        assert not planned.uses_remote

    def test_unshadowed_statement_forwards_whole(self, env):
        backend, deployment = env
        cache = deployment.add_cache_server("mini", shadow_tables=["customer"])
        # orders is not shadowed: binding fails locally, statement forwards.
        result = cache.execute("SELECT total FROM orders WHERE oid = 5")
        assert result.rows == [(7.5,)]
        assert cache.statements_forwarded == 1

    def test_unshadowed_dml_forwards_whole(self, env):
        backend, deployment = env
        cache = deployment.add_cache_server("mini", shadow_tables=["customer"])
        result = cache.execute("UPDATE orders SET status = 'X' WHERE oid = 1")
        assert result.rowcount == 1
        assert (
            backend.execute("SELECT status FROM orders WHERE oid = 1", database="shop").scalar
            == "X"
        )

    def test_full_shadow_still_raises_on_unknown(self, env):
        backend, deployment = env
        cache = deployment.add_cache_server("full")
        from repro.errors import BindError, CatalogError

        with pytest.raises((BindError, CatalogError)):
            cache.execute("SELECT x FROM never_existed")


class TestAgentModes:
    def test_des_push_mode_loads_backend(self, env):
        from repro.simulation import DESConfig, calibrate, simulate_cluster
        from repro.tpcw import TPCWConfig

        calibration = calibrate(
            "cached", TPCWConfig(num_items=30, num_ebs=6), repetitions=2
        )
        pull = simulate_cluster(
            calibration,
            DESConfig(users=60, mix_name="Ordering", servers=2, duration=40, agent_mode="pull"),
        )
        push = simulate_cluster(
            calibration,
            DESConfig(users=60, mix_name="Ordering", servers=2, duration=40, agent_mode="push"),
        )
        # Moving apply work to the backend raises its utilization.
        assert push.backend_utilization > pull.backend_utilization
