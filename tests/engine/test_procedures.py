"""Stored procedure interpreter tests."""

import pytest

from repro import Server
from repro.errors import BindError


@pytest.fixture
def server():
    s = Server("s")
    s.create_database("db")
    s.execute("CREATE TABLE t (id INT PRIMARY KEY, val FLOAT)")
    for i in range(1, 11):
        s.execute(f"INSERT INTO t VALUES ({i}, {i * 1.0})")
    return s


class TestBasics:
    def test_result_set(self, server):
        server.execute(
            "CREATE PROCEDURE getRow @id INT AS BEGIN SELECT id, val FROM t WHERE id = @id END"
        )
        result = server.execute("EXEC getRow @id = 4")
        assert result.rows == [(4, 4.0)]

    def test_positional_arguments(self, server):
        server.execute(
            "CREATE PROCEDURE getRow2 @id INT AS BEGIN SELECT val FROM t WHERE id = @id END"
        )
        assert server.execute("EXEC getRow2 6").scalar == 6.0

    def test_default_arguments(self, server):
        server.execute(
            "CREATE PROCEDURE withDefault @id INT = 2 AS BEGIN SELECT val FROM t WHERE id = @id END"
        )
        assert server.execute("EXEC withDefault").scalar == 2.0
        assert server.execute("EXEC withDefault 5").scalar == 5.0

    def test_missing_required_argument(self, server):
        server.execute(
            "CREATE PROCEDURE needsArg @id INT AS BEGIN SELECT 1 END"
        )
        with pytest.raises(BindError, match="expects parameter @id, which was not supplied"):
            server.execute("EXEC needsArg")

    def test_unknown_argument(self, server):
        server.execute("CREATE PROCEDURE noArgs AS BEGIN SELECT 1 END")
        with pytest.raises(BindError, match="has no parameter @bogus"):
            server.execute("EXEC noArgs @bogus = 1")

    def test_return_value(self, server):
        server.execute(
            "CREATE PROCEDURE retFive AS BEGIN RETURN 5 END"
        )
        assert server.execute("EXEC retFive").return_value == 5

    def test_return_stops_execution(self, server):
        server.execute(
            """
            CREATE PROCEDURE earlyOut AS
            BEGIN
                RETURN 1
                SELECT 'never'
            END
            """
        )
        result = server.execute("EXEC earlyOut")
        assert result.rows == []
        assert result.return_value == 1


class TestControlFlow:
    def test_if_else(self, server):
        server.execute(
            """
            CREATE PROCEDURE branchy @x INT AS
            BEGIN
                IF @x > 5
                    SELECT 'big' AS r
                ELSE
                    SELECT 'small' AS r
            END
            """
        )
        assert server.execute("EXEC branchy 9").scalar == "big"
        assert server.execute("EXEC branchy 2").scalar == "small"

    def test_while_loop(self, server):
        server.execute(
            """
            CREATE PROCEDURE looper @n INT AS
            BEGIN
                DECLARE @total INT = 0
                DECLARE @i INT = 1
                WHILE @i <= @n
                BEGIN
                    SET @total = @total + @i
                    SET @i = @i + 1
                END
                SELECT @total AS total
            END
            """
        )
        assert server.execute("EXEC looper 10").scalar == 55

    def test_select_assignment_from_table(self, server):
        server.execute(
            """
            CREATE PROCEDURE assign AS
            BEGIN
                DECLARE @m FLOAT
                SELECT @m = MAX(val) FROM t
                SELECT @m * 2 AS doubled
            END
            """
        )
        assert server.execute("EXEC assign").scalar == 20.0

    def test_select_assignment_no_rows_keeps_value(self, server):
        server.execute(
            """
            CREATE PROCEDURE keepOld AS
            BEGIN
                DECLARE @v FLOAT = -1.0
                SELECT @v = val FROM t WHERE id = 999
                SELECT @v AS v
            END
            """
        )
        assert server.execute("EXEC keepOld").scalar == -1.0

    def test_null_condition_is_false(self, server):
        server.execute(
            """
            CREATE PROCEDURE nullCond AS
            BEGIN
                DECLARE @x INT
                IF @x > 1
                    SELECT 'yes' AS r
                ELSE
                    SELECT 'no' AS r
            END
            """
        )
        assert server.execute("EXEC nullCond").scalar == "no"

    def test_print_inside_procedure(self, server):
        server.execute(
            "CREATE PROCEDURE chatty AS BEGIN PRINT 'working' SELECT 1 AS one END"
        )
        result = server.execute("EXEC chatty")
        assert "working" in result.messages


class TestSideEffectsAndNesting:
    def test_dml_inside_procedure(self, server):
        server.execute(
            """
            CREATE PROCEDURE addRow @id INT, @val FLOAT AS
            BEGIN
                INSERT INTO t VALUES (@id, @val)
            END
            """
        )
        server.execute("EXEC addRow @id = 99, @val = 9.9")
        assert server.execute("SELECT val FROM t WHERE id = 99").scalar == 9.9

    def test_nested_exec(self, server):
        server.execute("CREATE PROCEDURE inner1 AS BEGIN SELECT 42 AS a END")
        server.execute("CREATE PROCEDURE outer1 AS BEGIN EXEC inner1 END")
        assert server.execute("EXEC outer1").scalar == 42

    def test_multiple_result_sets_last_wins(self, server):
        server.execute(
            "CREATE PROCEDURE multi AS BEGIN SELECT 1 AS a SELECT 2 AS b END"
        )
        result = server.execute("EXEC multi")
        assert result.scalar == 2
        assert len(result.resultsets) == 2

    def test_plan_cache_reuse_across_calls(self, server):
        server.execute(
            "CREATE PROCEDURE lookup @id INT AS BEGIN SELECT val FROM t WHERE id = @id END"
        )
        server.execute("EXEC lookup 1")
        cached_before = len(server._plan_cache)
        server.execute("EXEC lookup 2")
        # Same body statement, same plan cache entry: no growth.
        assert len(server._plan_cache) == cached_before

    def test_max_id_pattern(self, server):
        """The TPC-W id-allocation idiom."""
        server.execute(
            """
            CREATE PROCEDURE nextId AS
            BEGIN
                DECLARE @next INT
                SELECT @next = MAX(id) FROM t
                IF @next IS NULL
                    SET @next = 0
                SET @next = @next + 1
                INSERT INTO t VALUES (@next, 0.0)
                SELECT @next AS id
            END
            """
        )
        first = server.execute("EXEC nextId").scalar
        second = server.execute("EXEC nextId").scalar
        assert (first, second) == (11, 12)
