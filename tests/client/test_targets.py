"""The execution-target protocol: ``execute(sql, params=None, session=None)``."""

from __future__ import annotations

import pytest

from repro.client import connect
from repro.engine.session import Session
from repro.net import ReproServer, WireConnection
from repro.sharding import ShardedDeployment
from repro.tpcw import TPCWConfig
from tests.conftest import stop_wire_server

SMALL_TIER = dict(config=TPCWConfig(num_items=40, num_ebs=2, seed=7), shards=2)


@pytest.fixture(params=["server", "cache", "failover", "shard_router", "wire"])
def target(request, backend, deployment, cache):
    """Each kind of execution target, plus a statement it can answer."""
    if request.param == "server":
        yield backend, "SELECT cid FROM customer WHERE cid = @cid", "shop"
    elif request.param == "cache":
        yield cache, "SELECT cid FROM Cust1000 WHERE cid = @cid", None
    elif request.param == "failover":
        router = deployment.failover_connection(cache)
        yield router, "SELECT cid FROM Cust1000 WHERE cid = @cid", None
    elif request.param == "shard_router":
        router = ShardedDeployment(**SMALL_TIER).router()
        yield router, "SELECT i_id FROM item WHERE i_id = @cid", None
    else:
        server = ReproServer.serve(backend)
        wire = WireConnection(server.host, server.port, database="shop")
        try:
            yield wire, "SELECT cid FROM customer WHERE cid = @cid", None
        finally:
            wire.close()
            stop_wire_server(server)


def test_every_target_takes_params_and_session_by_keyword(target):
    executor, sql, database = target
    session = Session(database=database)
    assert executor.execute(sql, params={"cid": 7}, session=session).rows == [(7,)]
    assert executor.execute(sql, params={"cid": 8}).rows == [(8,)]


@pytest.fixture(params=["failover", "sharded"])
def routed(request):
    """A connection over a router, plus every engine server under it."""
    if request.param == "failover":
        deployment = request.getfixturevalue("deployment")
        cache = request.getfixturevalue("cache")
        servers = [deployment.backend, cache.server]
        return connect(deployment.failover_connection(cache)), servers
    sharded = ShardedDeployment(**SMALL_TIER)
    servers = [sharded.backend] + [shard.server for shard in sharded.shards.values()]
    return sharded.connect(), servers


def _latches_held(servers):
    return [
        (server.name, database.name)
        for server in servers
        for database in server.databases.values()
        if database.latch.holder is not None
    ]


@pytest.mark.parametrize("finish", ["commit", "rollback", "close"])
def test_router_connections_end_their_transactions(routed, finish):
    """Transaction control through a router reaches the session that began
    the transaction, so the exclusive database latch is released."""
    connection, servers = routed
    connection.begin()
    assert connection.in_transaction()
    assert _latches_held(servers)
    getattr(connection, finish)()
    assert not connection.in_transaction()
    assert _latches_held(servers) == []
