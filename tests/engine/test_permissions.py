"""Permission checking at the engine level."""

import pytest

from repro import Server, Session
from repro.errors import PermissionError_


@pytest.fixture
def server():
    s = Server("s")
    s.create_database("db")
    s.execute("CREATE TABLE t (id INT PRIMARY KEY)")
    s.execute("INSERT INTO t VALUES (1)")
    s.execute("CREATE PROCEDURE p AS BEGIN SELECT COUNT(*) FROM t END")
    return s


def test_dbo_can_do_everything(server):
    session = Session(principal="dbo")
    assert server.execute("SELECT * FROM t", session=session).rows == [(1,)]


def test_select_denied_without_grant(server):
    session = Session(principal="alice")
    with pytest.raises(PermissionError_):
        server.execute("SELECT * FROM t", session=session)


def test_select_allowed_after_grant(server):
    server.execute("GRANT SELECT ON t TO alice")
    session = Session(principal="alice")
    assert server.execute("SELECT * FROM t", session=session).rows == [(1,)]


def test_dml_permissions_separate_from_select(server):
    server.execute("GRANT SELECT ON t TO alice")
    session = Session(principal="alice")
    with pytest.raises(PermissionError_):
        server.execute("INSERT INTO t VALUES (2)", session=session)
    server.execute("GRANT INSERT ON t TO alice")
    server.execute("INSERT INTO t VALUES (2)", session=session)


def test_execute_permission(server):
    session = Session(principal="bob")
    with pytest.raises(PermissionError_):
        server.execute("EXEC p", session=session)
    server.execute("GRANT EXEC ON p TO bob")
    assert server.execute("EXEC p", session=session).scalar == 1


def test_revoke(server):
    server.execute("GRANT SELECT ON t TO alice")
    database = server.database("db")
    database.catalog.permissions.revoke("SELECT", "t", "alice")
    with pytest.raises(PermissionError_):
        server.execute("SELECT * FROM t", session=Session(principal="alice"))


def test_permissions_cloned_into_shadow(server):
    server.execute("GRANT SELECT ON t TO alice")
    shadow = server.database("db").catalog.clone_for_shadow()
    assert shadow.permissions.holds("SELECT", "t", "alice")
    assert not shadow.permissions.holds("INSERT", "t", "alice")


# -- every object a statement names is checked --------------------------------
#
# ``alice`` holds every right on ``pub`` and none on ``secret``. Whatever
# shape names ``secret`` — a subquery, a derived table inside one, an
# INSERT's source, a DML predicate — must be denied, on a plain server,
# through a cache server's shadowed permissions, over the wire, and through
# either router — which forward the caller's session, not one of their own.

NAMES_SECRET = [
    "SELECT a FROM pub WHERE a IN (SELECT a FROM secret)",
    "SELECT a FROM pub WHERE a NOT IN (SELECT a FROM secret)",
    "SELECT a FROM pub WHERE EXISTS (SELECT a FROM secret)",
    "SELECT a, (SELECT MAX(a) FROM secret) FROM pub",
    "SELECT a FROM pub WHERE a IN (SELECT d.a FROM (SELECT a FROM secret) AS d)",
    "SELECT a FROM pub UNION ALL SELECT a FROM secret",
    "INSERT INTO pub SELECT a FROM secret",
    "INSERT INTO pub VALUES ((SELECT MAX(a) FROM secret))",
    "UPDATE pub SET a = a WHERE a IN (SELECT a FROM secret)",
    "UPDATE pub SET a = (SELECT MAX(a) FROM secret) WHERE a = 1",
    "DELETE FROM pub WHERE a IN (SELECT a FROM secret)",
    "SET @x = (SELECT MAX(a) FROM secret)",
]


def _guarded_backend():
    from repro import Server

    backend = Server("backend")
    backend.create_database("db")
    backend.execute(
        """
        CREATE TABLE pub (a INT PRIMARY KEY);
        CREATE TABLE secret (a INT PRIMARY KEY);
        INSERT INTO pub VALUES (1);
        INSERT INTO pub VALUES (2);
        INSERT INTO secret VALUES (2);
        INSERT INTO secret VALUES (9);
        CREATE VIEW secret_view AS SELECT a FROM secret;
        CREATE PROCEDURE readSecret AS
        BEGIN
            SELECT a FROM pub WHERE a IN (SELECT a FROM secret)
        END;
        GRANT SELECT ON pub TO alice;
        GRANT INSERT ON pub TO alice;
        GRANT UPDATE ON pub TO alice;
        GRANT DELETE ON pub TO alice;
        GRANT SELECT ON secret_view TO alice;
        GRANT EXEC ON readSecret TO alice
        """
    )
    backend.database("db").analyze_all()
    return backend


@pytest.fixture(params=["server", "cache", "tcp", "failover", "shard_router"])
def as_alice(request):
    """``execute(sql) -> rows`` as ``alice`` against one kind of target."""
    from repro import MTCacheDeployment
    from repro.client import connect
    from repro.net import ReproServer
    from tests.conftest import stop_wire_server

    backend = _guarded_backend()
    wire = None
    if request.param == "server":
        connection = connect(backend, database="db", principal="alice")
    elif request.param in ("cache", "failover", "shard_router"):
        deployment = MTCacheDeployment(backend, "db")
        cache = deployment.add_cache_server("cache1")
        cache.copy_procedure("readSecret")
        target = cache
        if request.param != "cache":
            target = deployment.failover_connection(cache)
        if request.param == "shard_router":
            from repro.client.shard_router import ShardRouter
            from repro.sharding.policy import ShardingPolicy, TablePartition
            from repro.sharding.ring import RangePartitioner

            policy = ShardingPolicy(
                key_domain=(1, 10),
                partitions={"pub": TablePartition("pub", "a")},
                views=["CREATE CACHED VIEW cv_pub AS SELECT a FROM pub"],
            )
            partitioner = RangePartitioner(["cache1"], 1, 10)
            target = ShardRouter(backend, "db", partitioner, policy, {"cache1": target})
        connection = connect(target, principal="alice")
    else:
        wire = ReproServer.serve(backend)
        connection = connect(f"{wire.dsn}?principal=alice")
    try:
        yield lambda sql: connection.cursor().execute(sql).fetchall()
    finally:
        connection.close()
        if wire is not None:
            stop_wire_server(wire)


@pytest.mark.parametrize("sql", NAMES_SECRET)
def test_naming_an_ungranted_table_anywhere_is_denied(as_alice, sql):
    with pytest.raises(PermissionError_, match="lacks SELECT on 'secret'"):
        as_alice(sql)
    # ... and nothing was written on the way to the denial.
    assert as_alice("SELECT a FROM pub ORDER BY a") == [(1,), (2,)]


def test_the_same_shapes_run_once_granted(as_alice):
    assert as_alice("SELECT a FROM pub WHERE a IN (SELECT a FROM pub)") == [(1,), (2,)]
    assert as_alice("SELECT a, (SELECT MAX(a) FROM pub) FROM pub WHERE a = 1") == [(1, 2)]


def test_ownership_chaining_still_reaches_the_table(as_alice):
    # Names are checked as written: a granted view over an ungranted table
    # and a granted procedure whose body reads it both work.
    assert as_alice("SELECT a FROM secret_view ORDER BY a") == [(2,), (9,)]
    assert as_alice("SELECT a FROM pub WHERE a IN (SELECT a FROM secret_view)") == [(2,)]
    assert as_alice("EXEC readSecret") == [(2,)]
