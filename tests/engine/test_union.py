"""UNION ALL statement tests."""

import pytest

from repro import Server
from repro.errors import ExecutionError
from repro.sql import parse
from repro.sql.formatter import format_statement


@pytest.fixture
def server():
    s = Server("s")
    s.create_database("db")
    s.execute("CREATE TABLE a (id INT PRIMARY KEY, v VARCHAR(10))")
    s.execute("CREATE TABLE b (id INT PRIMARY KEY, v VARCHAR(10))")
    s.execute("INSERT INTO a VALUES (1, 'a1'), (2, 'a2')")
    s.execute("INSERT INTO b VALUES (1, 'b1')")
    return s


def test_parse_and_format_roundtrip():
    statement = parse("SELECT id FROM a UNION ALL SELECT id FROM b UNION ALL SELECT 1")
    text = format_statement(statement)
    assert text.count("UNION ALL") == 2
    assert format_statement(parse(text)) == text


def test_union_all_concatenates(server):
    result = server.execute("SELECT v FROM a UNION ALL SELECT v FROM b")
    assert sorted(row[0] for row in result.rows) == ["a1", "a2", "b1"]


def test_union_all_keeps_duplicates(server):
    result = server.execute("SELECT v FROM a UNION ALL SELECT v FROM a")
    assert len(result.rows) == 4


def test_union_all_with_params(server):
    result = server.execute(
        "SELECT v FROM a WHERE id = @x UNION ALL SELECT v FROM b WHERE id = @x",
        params={"x": 1},
    )
    assert sorted(row[0] for row in result.rows) == ["a1", "b1"]


def test_union_arity_mismatch_rejected(server):
    with pytest.raises(ExecutionError, match="same number of columns"):
        server.execute("SELECT id, v FROM a UNION ALL SELECT id FROM b")


def test_union_type_mismatch_rejected(server):
    """Same arity is not enough: branch columns must be type-compatible."""
    with pytest.raises(ExecutionError, match="not type-compatible at column 1"):
        server.execute("SELECT id FROM a UNION ALL SELECT v FROM b")


def test_union_of_an_expression_with_a_column_of_its_type(server):
    """A string function is a string: the planner types expressions with the
    linter's inference, not as FLOAT (rejected as ``float vs varchar(10)``
    before)."""
    result = server.execute("SELECT UPPER(v) FROM a UNION ALL SELECT v FROM b")
    assert sorted(row[0] for row in result.rows) == ["A1", "A2", "b1"]
    result = server.execute("SELECT id + 1 FROM a UNION ALL SELECT MAX(id) FROM b")
    assert sorted(row[0] for row in result.rows) == [1, 2, 3]
    with pytest.raises(ExecutionError, match=r"column 1 \('upper'\): varchar\(10\) vs int"):
        server.execute("SELECT UPPER(v) FROM a UNION ALL SELECT id FROM b")


def test_output_columns_carry_their_expression_types(server):
    from repro.client import connect

    cursor = connect(server, database="db").cursor()
    cursor.execute(
        "SELECT UPPER(v) AS n, id + 1 AS k, MAX(id) AS m, COUNT(*) AS c, AVG(id) AS a, "
        "LEN(v) AS l, CASE WHEN id > 1 THEN v ELSE 'x' END AS w FROM a GROUP BY v, id"
    )
    types = {name: str(sql_type) for name, sql_type, *_ in cursor.description}
    assert types == {
        "n": "varchar(10)", "k": "int", "m": "int", "c": "bigint", "a": "float",
        "l": "int", "w": "varchar(10)",
    }
    # A materialized view's storage is typed the same way (``derive_schema``).
    server.execute("CREATE MATERIALIZED VIEW shout AS SELECT id, UPPER(v) AS loud FROM a")
    assert str(server.database("db").storage_table("shout").schema[1].sql_type) == "varchar(10)"


def test_union_compatible_types_widen(server):
    # INT unions with INT across tables; VARCHAR with VARCHAR.
    result = server.execute("SELECT id, v FROM a UNION ALL SELECT id, v FROM b")
    assert len(result.rows) == 3


def test_union_routes_branches_independently():
    from repro import MTCacheDeployment
    from tests.conftest import make_shop_backend

    backend = make_shop_backend(customers=50, orders=50)
    deployment = MTCacheDeployment(backend, "shop")
    cache = deployment.add_cache_server("u_cache")
    cache.create_cached_view(
        "CREATE CACHED VIEW uc AS SELECT cid, cname FROM customer WHERE cid <= 25"
    )
    result = cache.execute(
        "SELECT cname FROM customer WHERE cid = 3 "
        "UNION ALL SELECT cname FROM customer WHERE cid = 40"
    )
    assert sorted(row[0] for row in result.rows) == ["cust3", "cust40"]
