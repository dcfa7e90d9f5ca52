"""Literal lifting at the server: one parse, one plan, one handle per
template — and nothing the client can see but speed."""

import pytest

from repro import Server
from repro.errors import BindError, ParseError, ReproError, TypeCheckError
from repro.sql import RESERVED_PREFIX, parse

MARKER = "@" + RESERVED_PREFIX


@pytest.fixture
def server():
    s = Server("s")
    s.create_database("db")
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10), n FLOAT)")
    s.execute("INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, '3', 3.0)")
    return s


class TestOneTemplatePerShape:
    def test_distinct_literals_share_parse_and_plan(self, server):
        parses, entries = server.parses, len(server._parse_cache)
        misses = server._plan_cache.stats.misses
        for key in (1, 2, 3, 4, 2, 1):
            rows = server.execute(f"SELECT v FROM t WHERE id = {key}").rows
            assert rows == ([(("one", "two", "3")[key - 1],)] if key <= 3 else [])
        assert server.parses == parses + 1
        assert len(server._parse_cache) == entries + 1
        assert server._plan_cache.stats.misses == misses + 1

    def test_types_do_not_share_a_template(self, server):
        parses = server.parses
        assert server.execute("SELECT id FROM t WHERE n = 3").rows == [(3,)]
        assert server.execute("SELECT id FROM t WHERE n = 3.0").rows == [(3,)]
        assert server.execute("SELECT id FROM t WHERE v = '3'").rows == [(3,)]
        assert server.parses == parses + 3
        with pytest.raises(TypeCheckError):
            server.execute("SELECT id FROM t WHERE v = 3")

    def test_dml_runs_on_lifted_values(self, server):
        parses = server.parses
        for key in (10, 11, 12):
            server.execute(f"INSERT INTO t (id, v, n) VALUES ({key}, 'k{key}', -{key}.5)")
        for key in (10, 11):
            server.execute(f"UPDATE t SET v = 'u{key}', n = n - 1 WHERE id = {key}")
        server.execute("DELETE FROM t WHERE id IN (12, 13)")
        assert server.parses == parses + 3
        assert server.execute("SELECT id, v, n FROM t WHERE id >= 10 ORDER BY id").rows == [
            (10, "u10", -11.5),
            (11, "u11", -12.5),
        ]

    def test_the_callers_parameters_ride_along(self, server):
        sql = "SELECT v FROM t WHERE id >= @low AND id < 3 ORDER BY id"
        assert server.execute(sql, {"low": 2}).rows == [("two",)]
        assert server.execute(sql, {"low": 1}).rows == [("one",), ("two",)]

    def test_group_key_still_matches_its_select_item(self, server):
        rows = server.execute(
            "SELECT CASE WHEN id < 2 THEN 'lo' ELSE 'hi' END AS b, COUNT(*) FROM t "
            "WHERE id < 10 GROUP BY CASE WHEN id < 2 THEN 'lo' ELSE 'hi' END ORDER BY b"
        ).rows
        assert rows == [("hi", 2), ("lo", 1)]


class TestPreparedHandles:
    def test_a_handle_keeps_its_lifted_values(self, server):
        first = server.prepare_sql("SELECT v FROM t WHERE id = 1")
        second = server.prepare_sql("SELECT v FROM t WHERE id = 2")
        assert server.prepared_statement(first).statements is (
            server.prepared_statement(second).statements
        )
        assert server.execute_prepared(first).rows == [("one",)]
        assert server.execute_prepared(second).rows == [("two",)]

    def test_reprepare_after_ddl_keeps_the_values(self, server):
        handle = server.prepare_sql("SELECT v FROM t WHERE id = 2 AND n > @n")
        assert server.execute_prepared(handle, {"n": 0}).rows == [("two",)]
        server.execute("CREATE INDEX ix_t_v ON t (v)")
        assert server.execute_prepared(handle, {"n": 0}).rows == [("two",)]
        assert server.prepared_statement(handle).reprepares == 1


class TestErrorsSpeakTheUsersText:
    def test_a_syntax_error_points_into_the_text_sent(self, server):
        sql = "SELECT v FROM t WHERE id = 1 AND AND"
        with pytest.raises(ParseError) as raised:
            server.execute(sql)
        with pytest.raises(ParseError) as expected:
            parse(sql)
        assert str(raised.value) == str(expected.value)
        assert (raised.value.line, raised.value.column) == (1, 34)
        assert MARKER not in str(raised.value)

    def test_a_syntax_error_after_a_long_literal_keeps_its_column(self, server):
        sql = "SELECT v FROM t WHERE v = 'a much longer literal than a marker' AND id = = 2"
        with pytest.raises(ParseError) as raised:
            server.execute(sql)
        assert (raised.value.line, raised.value.column) == (1, sql.index("= 2") + 1)

    @pytest.mark.parametrize(
        "sql, error",
        [
            ("SELECT v FROM t WHERE id = 'x' + 1", TypeCheckError),
            ("SELECT v FROM t WHERE id = 'x'", TypeCheckError),
            ("SELECT v FROM t WHERE nope = 1", BindError),
            ("UPDATE t SET nope = 1 WHERE id = 2", ReproError),
            ("INSERT INTO t VALUES (1, 'dup', 0.5)", ReproError),
            ("EXEC nope 1, 'x'", ReproError),
            ("EXPLAIN SELECT v FROM t WHERE nope = 1", BindError),
        ],
    )
    def test_no_error_names_a_marker_the_user_never_wrote(self, server, sql, error):
        with pytest.raises(error) as raised:
            server.execute(sql)
        assert MARKER not in str(raised.value)
        assert RESERVED_PREFIX not in str(raised.value)

    def test_a_text_using_the_reserved_prefix_runs_as_written(self, server):
        sql = f"SELECT v FROM t WHERE id = {MARKER}i1 AND n < 2"
        assert server.execute(sql, {f"{RESERVED_PREFIX}i1": 1}).rows == [("one",)]
        assert server.execute(sql, {f"{RESERVED_PREFIX}i1": 2}).rows == []

    def test_a_params_dict_using_the_reserved_prefix_is_never_overwritten(self, server):
        mine = {f"{RESERVED_PREFIX}i1": 2}
        assert server.execute("SELECT v FROM t WHERE id = 1", mine).rows == [("one",)]
        assert server.execute(f"SELECT v FROM t WHERE id = 1 OR id = @{RESERVED_PREFIX}i1 "
                              "ORDER BY id", mine).rows == [("one",), ("two",)]
        assert mine == {f"{RESERVED_PREFIX}i1": 2}
        handle = server.prepare_sql("SELECT v FROM t WHERE id = 3")
        assert server.execute_prepared(handle, mine).rows == [("3",)]


class TestTheStaticPlanIsStillReachable:
    def test_explain_of_a_text_shows_the_template(self, server):
        lines = [row[0] for row in server.execute("EXPLAIN SELECT v FROM t WHERE id = 1").rows]
        assert lines == [
            row[0] for row in server.execute("EXPLAIN SELECT v FROM t WHERE id = 2").rows
        ]

    def test_plan_select_plans_the_statement_it_is_given(self, server):
        database = server.database("db")
        literal = parse("SELECT v FROM t WHERE id = 1")
        planned = server.plan_select(literal, database)
        assert not planned.required_parameters
        assert server.execute_statement(literal).rows == [("one",)]
