"""Shadow database construction (paper §3-§4)."""

import pytest

from repro import MTCacheDeployment
from repro.mtcache.scripts import generate_shadow_script

from tests.conftest import make_shop_backend


@pytest.fixture
def env():
    backend = make_shop_backend()
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    return backend, deployment, cache


class TestShadowCatalog:
    def test_same_tables(self, env):
        backend, _, cache = env
        backend_tables = set(backend.database("shop").catalog.tables)
        shadow_tables = set(cache.database.catalog.tables)
        assert backend_tables == shadow_tables

    def test_same_indexes(self, env):
        backend, _, cache = env
        assert set(backend.database("shop").catalog.indexes) == set(
            cache.database.catalog.indexes
        )

    def test_shadow_tables_are_empty(self, env):
        _, _, cache = env
        for name in cache.database.catalog.tables:
            assert len(cache.database.storage_table(name)) == 0

    def test_shadow_tables_marked_remote(self, env):
        _, _, cache = env
        assert cache.database.is_remote_table("customer")
        assert cache.database.backend_server == "backend"

    def test_statistics_reflect_backend(self, env):
        backend, _, cache = env
        backend_stats = backend.database("shop").stats_for("customer")
        shadow_stats = cache.database.stats_for("customer")
        assert shadow_stats.row_count == backend_stats.row_count == 200
        assert shadow_stats is not backend_stats  # detached copy

    def test_statistics_refresh(self, env):
        backend, deployment, cache = env
        backend.execute("DELETE FROM customer WHERE cid > 100", database="shop")
        backend.database("shop").analyze("customer")
        deployment.refresh_statistics()
        assert cache.database.stats_for("customer").row_count == 100

    def test_local_parsing_and_binding_works(self, env):
        """Shadowing exists so queries can be parsed/bound locally."""
        _, _, cache = env
        planned = cache.plan("SELECT cname FROM customer WHERE cid = 1")
        assert planned.schema.names == ["cname"]


class TestSetupScripts:
    def test_shadow_script_is_executable_sql(self, env):
        backend, _, _ = env
        script = generate_shadow_script(backend.database("shop").catalog)
        assert "CREATE TABLE customer" in script
        assert "CREATE INDEX ix_orders_cid ON orders" in script
        from repro.sql import parse_statements

        statements = parse_statements(script)
        assert len(statements) >= 4

    def test_provisioning_copies_the_backend_grants(self, backend):
        backend.execute("GRANT SELECT ON customer TO webapp", database="shop")
        cache = MTCacheDeployment(backend, "shop").add_cache_server("cache1")
        permissions = cache.database.catalog.permissions
        assert permissions.holds("SELECT", "customer", "webapp")
        assert not permissions.holds("UPDATE", "customer", "webapp")
        assert permissions is not backend.database("shop").catalog.permissions

    def test_cached_view_requires_mtcache_database(self):
        from repro import Server
        from repro.errors import ExecutionError

        plain = Server("plain")
        plain.create_database("db")
        plain.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        with pytest.raises(ExecutionError, match="MTCache"):
            plain.execute("CREATE CACHED VIEW v AS SELECT id FROM t")
