"""One cache server fed by multiple backend servers (paper §3)."""

import pytest

from repro import MTCacheDeployment, Server
from repro.common.clock import SimulatedClock
from repro.errors import ReplicationError


def build_backend(name, database, table_sql, rows, clock):
    server = Server(name, clock=clock)
    server.create_database(database)
    server.execute(table_sql, database=database)
    db = server.database(database)
    table_name = table_sql.split()[2]
    db.bulk_load(table_name, rows)
    db.analyze_all()
    return server


@pytest.fixture
def multi_env():
    clock = SimulatedClock()
    sales = build_backend(
        "sales_backend",
        "sales",
        "CREATE TABLE invoice (iid INT PRIMARY KEY, amount FLOAT)",
        [(i, i * 10.0) for i in range(1, 51)],
        clock,
    )
    catalog = build_backend(
        "catalog_backend",
        "catalog",
        "CREATE TABLE product (pid INT PRIMARY KEY, name VARCHAR(30))",
        [(i, f"prod{i}") for i in range(1, 31)],
        clock,
    )
    sales_deployment = MTCacheDeployment(sales, "sales")
    catalog_deployment = MTCacheDeployment(catalog, "catalog")

    shared = Server("shared_cache", clock=clock)
    sales_cache = sales_deployment.attach_cache_server(shared)
    catalog_cache = catalog_deployment.attach_cache_server(shared)
    sales_cache.create_cached_view(
        "CREATE CACHED VIEW cv_invoice AS SELECT iid, amount FROM invoice"
    )
    catalog_cache.create_cached_view(
        "CREATE CACHED VIEW cv_product AS SELECT pid, name FROM product"
    )
    return (
        sales,
        catalog,
        shared,
        sales_deployment,
        catalog_deployment,
        sales_cache,
        catalog_cache,
    )


class TestMultiBackendCache:
    def test_two_shadow_databases_on_one_server(self, multi_env):
        _, _, shared, *_ = multi_env
        assert set(shared.databases) == {"sales", "catalog"}

    def test_each_shadow_points_at_its_own_backend(self, multi_env):
        *_, sales_cache, catalog_cache = multi_env
        sales_link = sales_cache.database.backend_server
        catalog_link = catalog_cache.database.backend_server
        assert sales_link != catalog_link  # distinct linked servers

    def test_queries_route_within_each_database(self, multi_env):
        *_, sales_cache, catalog_cache = multi_env
        assert sales_cache.execute("SELECT COUNT(*) FROM invoice").scalar == 50
        assert catalog_cache.execute("SELECT COUNT(*) FROM product").scalar == 30

    def test_replication_streams_stay_separate(self, multi_env):
        (
            sales,
            catalog,
            _,
            sales_deployment,
            catalog_deployment,
            sales_cache,
            catalog_cache,
        ) = multi_env
        sales.execute("UPDATE invoice SET amount = 0 WHERE iid = 1", database="sales")
        catalog.execute(
            "UPDATE product SET name = 'renamed' WHERE pid = 1", database="catalog"
        )
        sales_deployment.sync()
        catalog_deployment.sync()
        assert (
            sales_cache.execute("SELECT amount FROM cv_invoice WHERE iid = 1").scalar
            == 0.0
        )
        assert (
            catalog_cache.execute("SELECT name FROM cv_product WHERE pid = 1").scalar
            == "renamed"
        )

    def test_updates_forward_to_the_right_backend(self, multi_env):
        sales, catalog, *_ , sales_cache, catalog_cache = multi_env
        sales_cache.execute("UPDATE invoice SET amount = 77.0 WHERE iid = 2")
        assert (
            sales.execute("SELECT amount FROM invoice WHERE iid = 2", database="sales").scalar
            == 77.0
        )
        # The other backend is untouched.
        assert (
            catalog.execute("SELECT COUNT(*) FROM product", database="catalog").scalar
            == 30
        )

    def test_mismatched_clock_rejected(self, multi_env):
        sales, *_ = multi_env
        deployment = MTCacheDeployment(sales, "sales")
        rogue = Server("rogue")  # its own clock
        with pytest.raises(ReplicationError, match="clock"):
            deployment.attach_cache_server(rogue)

    def test_catalog_refresh_links_new_tables_to_their_own_backend(self, multi_env):
        _, catalog, *_, catalog_deployment, _, catalog_cache = multi_env
        catalog.execute(
            "CREATE TABLE vendor (vid INT PRIMARY KEY, vname VARCHAR(30))",
            database="catalog",
        )
        catalog.execute("INSERT INTO vendor VALUES (1, 'acme')", database="catalog")
        catalog_deployment.refresh_catalog()
        # The new shadow table resolves through the catalog backend's
        # link, not the first-attached (sales) one.
        assert catalog_cache.database.backend_server == "backend_catalog"
        assert catalog_cache.execute("SELECT vname FROM vendor").rows == [("acme",)]

    def test_one_agent_per_shadow_database(self, multi_env):
        *_, sales_deployment, catalog_deployment, sales_cache, catalog_cache = multi_env
        for deployment in (sales_deployment, catalog_deployment):
            assert len(deployment.distributor.agents) == len(deployment.cache_servers) == 1
        # Two subscribers on one server: their lag series must not collide.
        assert sales_cache.subscriber.name != catalog_cache.subscriber.name
        assert sales_cache.agent is not catalog_cache.agent
