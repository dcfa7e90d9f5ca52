"""ODBC redirection edge cases: database re-resolution, live invalidation."""

from __future__ import annotations

import pytest

from repro import MTCacheDeployment, Server
from repro.mtcache.odbc import OdbcSourceRegistry

from tests.conftest import make_shop_backend


@pytest.fixture
def env():
    backend = make_shop_backend()
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("cache1")
    cache.create_cached_view(
        "CREATE CACHED VIEW vcust AS SELECT cid, cname FROM customer"
    )
    registry = OdbcSourceRegistry()
    registry.register("shopdsn", backend, "shop")
    return backend, deployment, cache, registry


def make_replica(name: str = "replica", database: str = "shop_v2") -> Server:
    replica = Server(name)
    replica.create_database(database)
    replica.execute(
        "CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40))",
        database=database,
    )
    replica.database(database).bulk_load(
        "customer", [(i, f"replica{i}") for i in range(1, 11)]
    )
    return replica


def test_redirect_resolves_database_from_target(env):
    """When the new server lacks the old database, the target's own
    default is adopted instead of keeping a name it cannot serve."""
    backend, _, _, registry = env
    replica = make_replica()
    registry.redirect("shopdsn", replica)  # no explicit database
    connection = registry.connect("shopdsn")
    # The old bug kept database="shop", which the replica does not have;
    # every statement then failed. Resolution must pick shop_v2.
    assert connection.database == "shop_v2"
    assert (
        connection.cursor()
        .execute("SELECT cname FROM customer WHERE cid = 1")
        .fetchone()
        == ("replica1",)
    )


def test_redirect_keeps_database_the_target_actually_has(env):
    backend, _, cache, registry = env
    registry.redirect("shopdsn", cache.server)  # cache carries 'shop' too
    connection = registry.connect("shopdsn")
    assert connection.database == "shop"
    assert connection.server_name == "cache1"


def test_live_connection_follows_redirect(env):
    backend, _, cache, registry = env
    connection = registry.connect("shopdsn")
    assert (
        connection.cursor().execute("SELECT cname FROM customer WHERE cid = 1").result.scalar
        == "cust1"
    )
    assert connection.server_name == "backend"

    registry.redirect("shopdsn", cache.server, "shop")
    # The connection object the application already holds re-resolves on
    # its next statement — no reconnect in application code.
    assert (
        connection.cursor().execute("SELECT cname FROM customer WHERE cid = 1").result.scalar
        == "cust1"
    )
    assert connection.server_name == "cache1"


def test_redirect_rolls_back_transaction_on_old_target(env):
    backend, _, cache, registry = env
    connection = registry.connect("shopdsn")
    connection.begin()
    connection.cursor().execute("UPDATE customer SET cname = 'dirty' WHERE cid = 1")
    latch = backend.database("shop").latch

    registry.redirect("shopdsn", cache.server, "shop")
    connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1")
    # The abandoned transaction was rolled back and its latch released;
    # the backend still shows the pre-transaction value.
    assert not latch.owns_exclusive()
    assert latch.readers == 0
    assert (
        backend.execute(
            "SELECT cname FROM customer WHERE cid = 1", database="shop"
        ).scalar
        == "cust1"
    )


def test_direct_connection_never_goes_stale(env):
    backend, _, cache, registry = env
    from repro.mtcache.odbc import OdbcConnection

    direct = OdbcConnection(backend, "shop", "dbo")
    registry.redirect("shopdsn", cache.server, "shop")
    # A connection not handed out by the registry is unaffected.
    assert direct.server_name == "backend"
    assert (
        direct.cursor().execute("SELECT cname FROM customer WHERE cid = 1").result.scalar == "cust1"
    )


def test_dead_connections_are_pruned(env):
    backend, _, cache, registry = env
    for _ in range(3):
        registry.connect("shopdsn")  # dropped immediately
    import gc

    gc.collect()
    registry.redirect("shopdsn", cache.server, "shop")
    assert registry._sources["shopdsn"]["connections"] == []
