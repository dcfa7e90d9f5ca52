"""One binder: what a statement means is checked by the engine's own bind,
the same way on every server and every access path.

* An incompatible comparison is refused with one error whichever target
  answers and whichever access path the plan takes — a filter, a
  ChoosePlan guard or an index seek (which compares nothing).
* A procedure body is bound at its first ``EXEC``: an undeclared variable
  and a mismatched argument list are ``BindError`` there, an operand type
  that cannot combine is ``TypeCheckError`` when its statement is planned.
* DDL binds what it names: a view at ``CREATE``, a ``GRANT``'s object.
* The clean TPC-W corpus binds and plans everywhere it is installed.
"""

from __future__ import annotations

import pytest

from repro.analysis.cli import check_workload
from repro.errors import BindError, CatalogError, TypeCheckError

from tests.conftest import stop_wire_server

# -- one comparison rule, one answer -----------------------------------------

MISMATCHES = [
    ("SELECT cid FROM customer WHERE cid = '5'", None),  # PK seek on the backend
    ("SELECT cid FROM customer WHERE cid = @p", {"p": "5"}),  # bind cannot see it
    ("SELECT oid FROM orders WHERE o_cid = '5'", None),  # secondary-index seek
    ("SELECT cid FROM customer WHERE segment = 5", None),
    ("SELECT cid FROM customer WHERE segment = @p", {"p": 5}),
    ("SELECT cid FROM customer WHERE cid + 0 = '5'", None),  # a scan
    ("SELECT cid FROM customer WHERE cid BETWEEN '1' AND 3", None),  # a range seek
    ("SELECT cid FROM customer WHERE cid BETWEEN @lo AND 3", {"lo": "1"}),
    ("UPDATE customer SET cname = cname WHERE cid = @p", {"p": "5"}),  # a DML seek
    ("DELETE FROM orders WHERE o_cid = @p", {"p": "5"}),
]


@pytest.fixture(params=["server", "cache", "tcp"])
def execute(request, cache):
    """``execute(sql, params) -> rows`` against one kind of target."""
    from repro.client import connect
    from repro.net import ReproServer

    backend = cache.deployment.backend
    if request.param == "server":
        yield lambda sql, params: backend.execute(sql, params, database="shop").rows
    elif request.param == "cache":
        yield lambda sql, params: cache.execute(sql, params).rows
    else:
        wire = ReproServer.serve(cache)
        connection = connect(wire.dsn)
        try:
            yield lambda sql, params: connection.cursor().execute(sql, params).fetchall()
        finally:
            connection.close()
            stop_wire_server(wire)


@pytest.mark.parametrize("sql, params", MISMATCHES)
def test_an_incompatible_comparison_raises_the_same_error_everywhere(execute, sql, params):
    with pytest.raises(TypeCheckError) as raised:
        execute(sql, params)
    assert str(raised.value) == "cannot compare int and varchar"


def test_compatible_comparisons_still_answer(execute):
    assert execute("SELECT cid FROM customer WHERE cid = 5", None) == [(5,)]
    assert execute("SELECT cid FROM customer WHERE cid = @p", {"p": 5.0}) == [(5,)]
    assert execute("SELECT oid FROM orders WHERE o_cid = @p AND oid < 10", {"p": 5}) == [(4,)]
    assert execute("SELECT COUNT(*) FROM customer WHERE segment = 'gold'", None) == [(66,)]
    assert execute("SELECT cid FROM customer WHERE cid = @p", {"p": None}) == []


def test_the_static_check_runs_before_any_row(backend):
    backend.execute("CREATE TABLE empty_t (a INT PRIMARY KEY, s VARCHAR(5))", database="shop")
    for sql in (
        "SELECT a FROM empty_t WHERE a = 'x'",
        "SELECT a FROM empty_t WHERE s > 1",
        "SELECT a FROM empty_t WHERE a IN (SELECT a FROM empty_t WHERE s = 2)",
        "DELETE FROM empty_t WHERE s = 3",
        "UPDATE empty_t SET a = a WHERE a BETWEEN 1 AND 'z'",
    ):
        with pytest.raises(TypeCheckError, match="cannot compare int and varchar"):
            backend.execute(sql, database="shop")
    with pytest.raises(TypeCheckError, match="cannot apply '-' to varchar and varchar"):
        backend.execute("SELECT a FROM empty_t WHERE s - s = 'x'", database="shop")
    # Dates compare with ISO strings, BIT with numbers, strings concatenate.
    backend.execute("CREATE TABLE dated (a INT PRIMARY KEY, d DATE, b BIT)", database="shop")
    backend.execute("INSERT INTO dated VALUES (1, '2003-06-09', 1)", database="shop")
    rows = backend.execute(
        "SELECT a FROM dated WHERE d >= '2003-01-01' AND b = 1 AND 'a' + 'b' = 'ab'",
        database="shop",
    ).rows
    assert rows == [(1,)]


# -- procedure bodies are bound at their first EXEC --------------------------


@pytest.fixture
def server():
    from repro import Server

    s = Server("s")
    s.create_database("db")
    s.execute("CREATE TABLE t (a INT NOT NULL)")
    return s


def test_an_undeclared_variable_fails_at_bind_not_as_a_null(server):
    server.execute("CREATE PROCEDURE p AS BEGIN INSERT INTO t (a) VALUES (@undeclared) END")
    with pytest.raises(BindError, match="must declare the scalar variable @undeclared"):
        server.execute("EXEC p")
    assert server.execute("SELECT COUNT(*) FROM t").scalar == 0


def test_variables_declared_anywhere_in_the_body_bind(server):
    server.execute(
        """
        CREATE PROCEDURE declared @n INT AS
        BEGIN
            DECLARE @i INT = 0
            WHILE @i < @n
            BEGIN
                IF @i = 1 SET @seen = @i
                SET @i = @i + 1
            END
            SELECT @last = a FROM t
            SELECT @seen, @last
        END
        """
    )
    assert server.execute("EXEC declared 3").rows == [(1, None)]


def test_an_incompatible_operand_fails_at_first_exec_over_an_empty_table(server):
    server.execute("CREATE PROCEDURE q AS BEGIN SELECT a FROM t WHERE a = 'x' + 1 END")
    with pytest.raises(TypeCheckError, match="cannot apply '\\+' to varchar and int"):
        server.execute("EXEC q")


def test_objects_keep_deferred_name_resolution(server):
    server.execute("CREATE PROCEDURE later AS BEGIN SELECT b FROM made_later END")
    with pytest.raises(BindError, match="made_later"):
        server.execute("EXEC later")
    server.execute("CREATE TABLE made_later (b INT)")
    server.execute("INSERT INTO made_later VALUES (7)")
    assert server.execute("EXEC later").rows == [(7,)]


@pytest.mark.parametrize(
    "call, message",
    [
        ("EXEC r 1, 2", "procedure r takes 1 argument\\(s\\); argument 2 has no parameter"),
        ("EXEC r @nope = 1", "procedure r has no parameter @nope"),
        ("EXEC r", "procedure r expects parameter @a, which was not supplied"),
    ],
)
def test_exec_arguments_are_bound(server, call, message):
    server.execute("CREATE PROCEDURE r @a INT AS BEGIN SELECT @a END")
    with pytest.raises(BindError, match=message):
        server.execute(call)
    assert server.execute("EXEC r @a = 4").scalar == 4
    assert server.execute("EXEC r 5").scalar == 5


# -- DDL binds what it names ---------------------------------------------------


def test_a_view_is_bound_at_create(backend):
    with pytest.raises(BindError, match="unknown column 'nope'"):
        backend.execute("CREATE VIEW vv AS SELECT nope FROM customer", database="shop")
    assert backend.database("shop").catalog.maybe_view("vv") is None


def test_a_grant_needs_an_existing_object(backend):
    with pytest.raises(CatalogError, match="no_such_object"):
        backend.execute("GRANT SELECT ON no_such_object TO app", database="shop")
    backend.execute("GRANT SELECT ON customer TO app", database="shop")


def test_an_index_on_an_unknown_column_leaves_the_catalog_alone(backend):
    with pytest.raises(BindError, match="unknown column 'nope'"):
        backend.execute("CREATE INDEX ix_nope ON customer (nope)", database="shop")
    assert "ix_nope" not in backend.database("shop").catalog.indexes


# -- the clean corpus binds and plans everywhere -----------------------------


def test_every_tpcw_procedure_binds_and_plans_on_backend_cache_and_shards():
    from repro.sharding.deployment import ShardedDeployment
    from repro.tpcw import TPCWConfig, build_backend, enable_caching
    from repro.tpcw.setup import DATABASE_NAME

    backend, config = build_backend(TPCWConfig(num_items=30, num_ebs=4))
    deployment, (cache,) = enable_caching(backend, ["cache1"], config)
    sharded = ShardedDeployment(backend, config, shards=2)
    servers = [backend, cache.server] + [shard.server for shard in sharded.shards.values()]
    for server in servers:
        database = server.databases[DATABASE_NAME]
        assert database.catalog.procedures, server.name
        assert check_workload(server, database) == [], server.name


def test_the_workload_pass_reports_what_the_engine_raises(server):
    server.execute("CREATE PROCEDURE fine @a INT AS BEGIN SELECT a FROM t WHERE a = @a END")
    server.execute("CREATE PROCEDURE typo AS BEGIN SELECT nope FROM t END")
    server.execute("CREATE PROCEDURE unbound AS BEGIN SELECT @x END")
    server.execute(
        "CREATE PROCEDURE nested @a INT AS BEGIN IF @a > 0 BEGIN DELETE FROM t WHERE a = 'x' END END"
    )
    diagnostics = {d.location: d for d in check_workload(server, server.database("db"))}
    assert set(diagnostics) == {"procedure typo", "procedure unbound", "procedure nested"}
    assert diagnostics["procedure typo"].rule == "BindError"
    assert "must declare the scalar variable @x" in diagnostics["procedure unbound"].message
    assert diagnostics["procedure nested"].rule == "TypeCheckError"
