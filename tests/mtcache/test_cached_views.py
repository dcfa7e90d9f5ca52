"""Cached view lifecycle: creation, subscription, indexes, statistics."""

import pytest

from repro import MTCacheDeployment
from repro.errors import ReplicationError

from tests.conftest import make_shop_backend


@pytest.fixture
def env():
    backend = make_shop_backend()
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    return backend, deployment, cache


class TestCreation:
    def test_view_registered_as_cached(self, env):
        _, _, cache = env
        cache.create_cached_view(
            "CREATE CACHED VIEW v AS SELECT cid, cname FROM customer WHERE cid <= 50"
        )
        view = cache.database.catalog.get_view("v")
        assert view.cached and view.materialized

    def test_population_via_snapshot(self, env):
        _, _, cache = env
        cache.create_cached_view(
            "CREATE CACHED VIEW v AS SELECT cid, cname FROM customer WHERE cid <= 50"
        )
        assert cache.execute("SELECT COUNT(*) FROM v").scalar == 50

    def test_subscription_created_automatically(self, env):
        _, deployment, cache = env
        cache.create_cached_view(
            "CREATE CACHED VIEW v AS SELECT cid FROM customer WHERE cid <= 50"
        )
        assert list(cache.subscriptions) == ["v"]
        assert len(deployment.distributor.agents) == len(deployment.cache_servers) == 1
        assert len(deployment.publication.articles) == 1

    def test_star_projection(self, env):
        _, _, cache = env
        cache.create_cached_view("CREATE CACHED VIEW v AS SELECT * FROM customer")
        assert cache.execute("SELECT COUNT(*) FROM v").scalar == 200
        schema = cache.execute("SELECT * FROM v").schema
        assert schema.names == ["cid", "cname", "caddress", "segment"]

    def test_column_aliasing(self, env):
        _, _, cache = env
        cache.create_cached_view(
            "CREATE CACHED VIEW v AS SELECT cid AS id, cname AS nm FROM customer WHERE cid <= 10"
        )
        rows = cache.execute("SELECT id, nm FROM v ORDER BY id").rows
        assert rows[0] == (1, "cust1")

    def test_pk_carries_over_when_projected(self, env):
        _, _, cache = env
        cache.create_cached_view(
            "CREATE CACHED VIEW v AS SELECT cid, cname FROM customer WHERE cid <= 50"
        )
        storage = cache.database.storage_table("v")
        assert storage.find_index(["cid"]) is not None

    def test_backend_indexes_mirrored(self, env):
        """Paper §6.1.2: cache indexes identical to backend indexes."""
        _, _, cache = env
        cache.create_cached_view(
            "CREATE CACHED VIEW v AS SELECT cid, cname, segment FROM customer"
        )
        storage = cache.database.storage_table("v")
        assert storage.find_index(["segment"]) is not None

    def test_statistics_computed_on_creation(self, env):
        _, _, cache = env
        cache.create_cached_view(
            "CREATE CACHED VIEW v AS SELECT cid FROM customer WHERE cid <= 50"
        )
        stats = cache.database.stats_for("v")
        assert stats.row_count == 50

    def test_join_view_rejected(self, env):
        _, _, cache = env
        with pytest.raises(ReplicationError, match="select-project"):
            cache.create_cached_view(
                "CREATE CACHED VIEW v AS "
                "SELECT c.cid FROM customer c JOIN orders o ON c.cid = o.o_cid"
            )

    def test_computed_column_rejected(self, env):
        _, _, cache = env
        with pytest.raises(ReplicationError):
            cache.create_cached_view(
                "CREATE CACHED VIEW v AS SELECT cid + 1 AS c FROM customer"
            )


class TestMaintenance:
    def test_view_tracks_backend_updates(self, env):
        backend, deployment, cache = env
        cache.create_cached_view(
            "CREATE CACHED VIEW v AS SELECT cid, cname FROM customer WHERE cid <= 50"
        )
        backend.execute(
            "UPDATE customer SET cname = 'updated' WHERE cid = 10", database="shop"
        )
        deployment.sync()
        assert cache.execute("SELECT cname FROM v WHERE cid = 10").scalar == "updated"

    def test_multiple_views_same_table(self, env):
        backend, deployment, cache = env
        cache.create_cached_view(
            "CREATE CACHED VIEW v1 AS SELECT cid, cname FROM customer WHERE cid <= 50"
        )
        cache.create_cached_view(
            "CREATE CACHED VIEW v2 AS SELECT cid, segment FROM customer WHERE cid <= 20"
        )
        backend.execute(
            "UPDATE customer SET cname = 'x', segment = 'vip' WHERE cid = 5",
            database="shop",
        )
        deployment.sync()
        assert cache.execute("SELECT cname FROM v1 WHERE cid = 5").scalar == "x"
        assert cache.execute("SELECT segment FROM v2 WHERE cid = 5").scalar == "vip"

    def test_procedure_copying_is_dba_controlled(self, env):
        backend, _, cache = env
        backend.execute(
            "CREATE PROCEDURE getC @id INT AS BEGIN SELECT cname FROM customer WHERE cid = @id END",
            database="shop",
        )
        # Not copied: the call must forward to the backend transparently.
        assert cache.database.catalog.maybe_procedure("getC") is None
        assert cache.execute("EXEC getC @id = 3").scalar == "cust3"
        # After copying, it runs locally.
        cache.copy_procedure("getC")
        assert cache.database.catalog.maybe_procedure("getC") is not None
        assert cache.execute("EXEC getC @id = 3").scalar == "cust3"


def test_seek_on_a_view_that_renames_its_columns():
    """A query names base columns; the view's storage (and its indexes)
    uses the view's names. A seek must key on the view column the base
    column maps to — here the names are swapped — and it answers alone,
    with no filter above it."""
    from repro.exec.operators import FilterOp, IndexSeekOp
    from repro.sql import parse

    backend = make_shop_backend(customers=50, orders=20)
    cache = MTCacheDeployment(backend, "shop").add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW v AS SELECT cid AS segment, segment AS cid, cname FROM customer"
    )
    for sql in (
        "SELECT cname FROM customer WHERE cid = 7",
        "SELECT cname FROM customer WHERE segment = 'gold'",
    ):
        nodes = list(cache.server.plan_select(parse(sql), cache.database).root.walk())
        assert any(isinstance(node, IndexSeekOp) for node in nodes), sql
        assert not any(isinstance(node, FilterOp) for node in nodes), sql
        expected = sorted(backend.execute(sql, database="shop").rows)
        assert expected and sorted(cache.execute(sql).rows) == expected, sql
