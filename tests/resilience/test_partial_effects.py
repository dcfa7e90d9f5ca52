"""A call that fails after one of its statements committed is never re-run.

The batch below forwards its UPDATE to the backend (committed there the
moment the link returns), then needs the backend again for the SELECT's
uncached key — through a link whose prepared path is down. Whatever the
failure, the UPDATE already happened: the error that reaches the caller
is the non-transient :class:`~repro.errors.PartialEffectError`, so no
retry policy, failover router or cache fallback runs the batch a second
time.
"""

from __future__ import annotations

import pytest

from repro import MTCacheDeployment, Server
from repro.client import connect
from repro.errors import (
    CircuitOpenError,
    LinkUnavailableError,
    PartialEffectError,
    is_transient,
)
from repro.faults import FaultInjector
from repro.net import ReproServer
from tests.conftest import stop_wire_server

BATCH = "UPDATE customer SET n = n + 1 WHERE cid = 1; SELECT cname FROM customer WHERE cid = @k"


class Env:
    def __init__(self):
        self.backend = Server("backend")
        self.backend.create_database("shop")
        self.backend.execute(
            "CREATE TABLE customer (cid INT PRIMARY KEY, cname VARCHAR(40), n INT)"
        )
        self.backend.database("shop").bulk_load(
            "customer", [(cid, f"cust{cid}", 0) for cid in range(1, 21)]
        )
        self.backend.database("shop").analyze_all()
        self.deployment = MTCacheDeployment(self.backend, "shop")
        self.cache = self.deployment.add_cache_server("cache1")
        self.cache.create_cached_view(
            "CREATE CACHED VIEW Cust AS SELECT cid, cname, n FROM customer WHERE cid <= 10"
        )
        self.link = self.cache.server.linked_servers.get("backend")
        self.injector = FaultInjector(self.backend.clock, seed=3)

    def wound(self):
        self.injector.wound_link(self.link, kind="prepared", count=None)

    def n(self) -> int:
        return self.backend.execute("SELECT n FROM customer WHERE cid = 1").scalar


@pytest.fixture
def env():
    return Env()


def test_through_the_router_the_batch_is_not_re_run_on_the_backend(env):
    router = env.deployment.failover_connection(env.cache)
    env.wound()
    with connect(router) as connection:
        with pytest.raises(PartialEffectError) as info:
            connection.cursor().execute(BATCH, {"k": 15})
    assert not is_transient(info.value)
    assert isinstance(info.value.__cause__, (LinkUnavailableError, CircuitOpenError))
    assert router.failovers == 0 and router.rerouted_statements == 0
    assert env.n() == 1


def test_straight_to_the_cache_the_error_is_not_transient(env):
    env.wound()
    with connect(env.cache) as connection:
        with pytest.raises(PartialEffectError) as info:
            connection.cursor().execute(BATCH, {"k": 15})
    assert not is_transient(info.value)
    assert env.n() == 1


def test_a_batch_that_fails_on_its_first_statement_still_fails_over(env):
    router = env.deployment.failover_connection(env.cache)
    env.wound()
    reversed_batch = (
        "SELECT cname FROM customer WHERE cid = @k; UPDATE customer SET n = n + 1 WHERE cid = 1"
    )
    with connect(router) as connection:
        connection.cursor().execute(reversed_batch, {"k": 15})
    assert router.failovers == 1
    assert env.n() == 1  # it ran once, on the backend


def test_the_partial_effect_crosses_the_wire_as_itself(env):
    server = ReproServer.serve(env.cache)
    env.wound()
    try:
        with connect(server.dsn, timeout=5) as connection:
            with pytest.raises(PartialEffectError) as info:
                connection.cursor().execute(BATCH, {"k": 15})
        assert not is_transient(info.value)
    finally:
        stop_wire_server(server)
    assert env.n() == 1
