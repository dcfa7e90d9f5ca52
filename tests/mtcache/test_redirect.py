"""ODBC redirection edge cases: database re-resolution, live connections,
and a transaction open across a redirect."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import MTCacheDeployment, Server
from repro.client import connect
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
    assert registry.source("shopdsn").database == "shop_v2"
    assert (
        connection.cursor()
        .execute("SELECT cname FROM customer WHERE cid = 1")
        .fetchone()
        == ("replica1",)
    )


def test_redirect_keeps_database_the_target_actually_has(env):
    backend, _, cache, registry = env
    registry.redirect("shopdsn", cache.server)  # cache carries 'shop' too
    assert registry.source("shopdsn").database == "shop"
    assert registry.target_of("shopdsn") == "cache1"
    assert registry.connect("shopdsn").server is cache.server


def test_live_connection_follows_redirect(env):
    backend, _, cache, registry = env
    connection = registry.connect("shopdsn")
    assert (
        connection.cursor().execute("SELECT cname FROM customer WHERE cid = 1").result.scalar
        == "cust1"
    )
    assert connection.server is backend

    registry.redirect("shopdsn", cache.server, "shop")
    # The connection object the application already holds follows on its
    # next statement — no reconnect in application code.
    served = cache.server.statements_executed
    assert (
        connection.cursor().execute("SELECT cname FROM customer WHERE cid = 1").result.scalar
        == "cust1"
    )
    assert cache.server.statements_executed == served + 1
    assert connection.server is cache.server


def test_a_transaction_open_across_a_redirect_commits_at_its_home(env):
    backend, deployment, cache, registry = env
    connection = registry.connect("shopdsn")
    cursor = connection.cursor()
    connection.begin()
    cursor.execute("UPDATE customer SET cname = 'paid' WHERE cid = 1")
    latch = backend.database("shop").latch
    assert latch.holder is connection.session

    registry.redirect("shopdsn", cache.server, "shop")
    # The session is inside a transaction: its home is the backend, and
    # COMMIT goes there — the configuration change discards nothing.
    served = cache.server.statements_executed
    connection.commit()
    assert cache.server.statements_executed == served
    assert latch.holder is None and not connection.in_transaction()
    assert (
        backend.execute("SELECT cname FROM customer WHERE cid = 1", database="shop").scalar
        == "paid"
    )
    # Outside the transaction the connection follows the redirect.
    deployment.sync()
    assert cursor.execute("SELECT cname FROM customer WHERE cid = 1").result.scalar == "paid"
    assert cache.server.statements_executed == served + 1
    assert connection.server.name == registry.target_of("shopdsn") == "cache1"


def test_direct_connection_never_goes_stale(env):
    backend, _, cache, registry = env
    direct = connect(backend, database="shop")
    registry.redirect("shopdsn", cache.server, "shop")
    # A connection not handed out by the registry is unaffected.
    served = cache.server.statements_executed
    assert (
        direct.cursor().execute("SELECT cname FROM customer WHERE cid = 1").result.scalar == "cust1"
    )
    assert direct.server is backend
    assert cache.server.statements_executed == served


def test_dead_connections_are_pruned(env):
    """The registry holds one source per name, never the connections it
    handed out: a dropped connection is garbage at once."""
    _, _, cache, registry = env
    dropped = [weakref.ref(registry.connect("shopdsn")) for _ in range(3)]
    gc.collect()
    assert all(ref() is None for ref in dropped)
    registry.redirect("shopdsn", cache.server, "shop")
    assert registry.target_of("shopdsn") == "cache1"
