"""Expression evaluation: SQL semantics including three-valued logic.

A compiled expression is one kernel ``(rows, ctx) -> list``. The oracle
for its specialised paths is the value-level definitions
(``sql_compare``, ``sql_and``/``sql_or``/``sql_not``,
``like_to_regex(p).match``, ``in_subquery_linear``) applied row by row
over the AST (:func:`oracle`), which bypasses every specialised kernel.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Column, Schema
from repro.common.types import DATE, FLOAT, INT, VARCHAR
from repro.errors import ExecutionError, TypeCheckError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import (
    ExpressionCompiler,
    _as_bool,
    _coerce_pair,
    _is_row_independent,
    compiled_like_pattern,
    evaluate as evaluate_kernel,
    in_subquery_linear,
    like_to_regex,
    sql_and,
    sql_compare,
    sql_not,
    sql_or,
)
from repro.sql import ast, parse_expression

SCHEMA = Schema(
    [
        Column("a", INT, qualifier="t"),
        Column("b", FLOAT, qualifier="t"),
        Column("s", VARCHAR(20), qualifier="t"),
    ]
)


def evaluate(text, row=(1, 2.5, "hello"), params=None):
    compiled = ExpressionCompiler(SCHEMA).compile(parse_expression(text))
    return evaluate_kernel(compiled, ExecutionContext(params=params or {}), row)


class TestArithmetic:
    def test_basic(self):
        assert evaluate("a + 2") == 3
        assert evaluate("b * 2") == 5.0
        assert evaluate("10 - a") == 9

    def test_integer_division_truncates_toward_zero(self):
        assert evaluate("7 / 2") == 3
        assert evaluate("-7 / 2") == -3

    def test_float_division(self):
        assert evaluate("7.0 / 2") == 3.5

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            evaluate("1 / 0")

    def test_modulo(self):
        assert evaluate("7 % 3") == 1

    def test_null_propagates(self):
        assert evaluate("a + NULL") is None
        assert evaluate("NULL * 2") is None

    def test_string_concat(self):
        assert evaluate("s + '!'") == "hello!"

    def test_string_plus_number_rejected(self):
        with pytest.raises(TypeCheckError):
            evaluate("s + 1")

    def test_unary_minus_null(self):
        assert evaluate("-(NULL + 1)") is None


class TestComparisons:
    def test_basic(self):
        assert evaluate("a = 1") is True
        assert evaluate("a <> 1") is False
        assert evaluate("b >= 2.5") is True
        assert evaluate("s < 'world'") is True

    def test_null_comparison_is_unknown(self):
        assert evaluate("a = NULL") is None
        assert evaluate("NULL <> NULL") is None

    def test_numeric_cross_type(self):
        assert evaluate("a < 1.5") is True

    def test_date_vs_string(self):
        schema = Schema([Column("d", INT)])
        compiled = ExpressionCompiler(schema).compile(parse_expression("d >= '2003-01-05'"))
        assert evaluate_kernel(compiled, ExecutionContext(), (datetime.date(2003, 1, 6),)) is True


class TestThreeValuedLogic:
    def test_kleene_tables(self):
        assert sql_and(True, None) is None
        assert sql_and(False, None) is False
        assert sql_or(True, None) is True
        assert sql_or(False, None) is None
        assert sql_not(None) is None

    def test_and_or_in_expressions(self):
        assert evaluate("a = 1 AND NULL = 1") is None
        assert evaluate("a = 1 OR NULL = 1") is True
        assert evaluate("a = 2 AND NULL = 1") is False

    def test_not_unknown(self):
        assert evaluate("NOT (NULL = 1)") is None

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([True, False, None]),
        st.sampled_from([True, False, None]),
    )
    def test_property_de_morgan(self, left, right):
        assert sql_not(sql_and(left, right)) == sql_or(sql_not(left), sql_not(right))
        assert sql_not(sql_or(left, right)) == sql_and(sql_not(left), sql_not(right))


class TestPredicates:
    def test_in_list(self):
        assert evaluate("a IN (1, 2)") is True
        assert evaluate("a IN (5, 6)") is False
        assert evaluate("a NOT IN (5, 6)") is True

    def test_in_list_with_null_semantics(self):
        # x IN (..., NULL) is UNKNOWN when no listed value matches.
        assert evaluate("a IN (5, NULL)") is None
        assert evaluate("a IN (1, NULL)") is True
        assert evaluate("a NOT IN (5, NULL)") is None

    def test_between(self):
        assert evaluate("a BETWEEN 0 AND 2") is True
        assert evaluate("a NOT BETWEEN 0 AND 2") is False
        assert evaluate("a BETWEEN NULL AND 2") is None

    def test_like(self):
        assert evaluate("s LIKE 'he%'") is True
        assert evaluate("s LIKE '%LL%'") is True  # case-insensitive
        assert evaluate("s LIKE 'h_llo'") is True
        assert evaluate("s NOT LIKE 'x%'") is True
        assert evaluate("s LIKE NULL") is None

    def test_like_special_chars_escaped(self):
        schema = Schema([Column("s", VARCHAR(20))])
        compiled = ExpressionCompiler(schema).compile(parse_expression("s LIKE 'a.b%'"))
        assert compiled([("a.bc",), ("axbc",)], ExecutionContext()) == [True, False]

    def test_is_null(self):
        assert evaluate("NULL IS NULL") is True
        assert evaluate("a IS NULL") is False
        assert evaluate("a IS NOT NULL") is True

    def test_case_when(self):
        assert evaluate("CASE WHEN a = 1 THEN 'one' ELSE 'other' END") == "one"
        assert evaluate("CASE WHEN a = 9 THEN 'nine' END") is None


class TestParametersAndFunctions:
    def test_parameter_binding(self):
        assert evaluate("a = @x", params={"x": 1}) is True

    def test_missing_parameter_is_null(self):
        assert evaluate("@nothing IS NULL") is True

    def test_scalar_functions(self):
        assert evaluate("UPPER(s)") == "HELLO"
        assert evaluate("LOWER('ABC')") == "abc"
        assert evaluate("LEN(s)") == 5
        assert evaluate("ABS(-3)") == 3
        assert evaluate("SUBSTRING(s, 2, 3)") == "ell"
        assert evaluate("CHARINDEX('ll', s)") == 3
        assert evaluate("COALESCE(NULL, NULL, 7)") == 7
        assert evaluate("ISNULL(NULL, 9)") == 9
        assert evaluate("ROUND(2.567, 1)") == 2.6
        assert evaluate("FLOOR(2.9)") == 2
        assert evaluate("CEILING(2.1)") == 3

    def test_functions_propagate_null(self):
        assert evaluate("UPPER(NULL)") is None
        assert evaluate("LEN(NULL)") is None

    def test_unknown_function(self):
        with pytest.raises(ExecutionError, match="unknown function"):
            evaluate("FROBNICATE(1)")

    def test_getdate_uses_virtual_clock(self):
        from repro.common.clock import SimulatedClock

        clock = SimulatedClock()
        clock.advance(60.0)
        compiled = ExpressionCompiler(SCHEMA).compile(parse_expression("GETDATE()"))
        value = evaluate_kernel(compiled, ExecutionContext(clock=clock), (1, 2.5, "x"))
        assert value == datetime.datetime(2003, 6, 9, 0, 1)

    def test_aggregate_outside_group_by_rejected(self):
        with pytest.raises(ExecutionError):
            evaluate("SUM(a)")


class TestLikeRegex:
    def test_anchoring(self):
        assert like_to_regex("abc").match("abc")
        assert not like_to_regex("abc").match("xabc")
        assert not like_to_regex("abc").match("abcx")

    def test_compiled_pattern_memoized(self):
        assert compiled_like_pattern("xy%") is compiled_like_pattern("xy%")


class TestCoercionEdgeCases:
    """sql_compare/_coerce_pair corners the batch fast paths must respect."""

    def test_null_on_either_side_is_unknown(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            assert sql_compare(op, None, 1) is None
            assert sql_compare(op, "x", None) is None
            assert sql_compare(op, None, None) is None

    def test_int_float_cross_type(self):
        assert sql_compare("=", 1, 1.0) is True
        assert sql_compare("<", 1, 1.5) is True
        assert sql_compare(">=", 2.0, 2) is True

    def test_bool_coerces_to_int(self):
        assert _coerce_pair(True, 1) == 0
        assert _coerce_pair(False, 1) == -1
        assert sql_compare("=", True, 1.0) is True

    def test_date_vs_iso_string_both_sides(self):
        day = datetime.date(2003, 6, 9)
        assert sql_compare("=", day, "2003-06-09") is True
        assert sql_compare("<", "2003-06-08", day) is True

    def test_date_vs_datetime_promotes(self):
        day = datetime.date(2003, 6, 9)
        stamp = datetime.datetime(2003, 6, 9, 12, 0)
        assert sql_compare("<", day, stamp) is True

    def test_mixed_incomparable_types_rejected(self):
        with pytest.raises(TypeCheckError):
            sql_compare("=", "abc", 1)
        with pytest.raises(TypeCheckError):
            _coerce_pair(datetime.date(2003, 1, 1), 5)


def oracle(node, row, params):
    """``node``'s value on one row, read straight off the value-level
    definitions: no kernel, no column-vs-constant path, no literal-core
    LIKE test, no membership probe."""

    def value(child):
        return oracle(child, row, params)

    if isinstance(node, ast.Literal):
        return node.value
    if isinstance(node, ast.ColumnRef):
        return row[SCHEMA.resolve(node.name, node.qualifier)]
    if isinstance(node, ast.Parameter):
        return params.get(node.name)
    if isinstance(node, ast.BinaryOp):
        lhs, rhs = value(node.left), value(node.right)
        if node.op in ("AND", "OR"):
            combine = sql_and if node.op == "AND" else sql_or
            return combine(_as_bool(lhs), _as_bool(rhs))
        if node.op in ("=", "<>", "<", "<=", ">", ">="):
            return sql_compare(node.op, lhs, rhs)
        assert node.op == "+"
        return None if lhs is None or rhs is None else lhs + rhs
    if isinstance(node, ast.UnaryOp):
        operand = value(node.operand)
        if node.op == "NOT":
            return sql_not(_as_bool(operand))
        return None if operand is None else -operand
    if isinstance(node, ast.IsNull):
        return (value(node.operand) is None) != node.negated
    if isinstance(node, ast.Between):
        operand = value(node.operand)
        result = sql_and(
            sql_compare(">=", operand, value(node.low)),
            sql_compare("<=", operand, value(node.high)),
        )
        return sql_not(result) if node.negated else result
    if isinstance(node, ast.InList):
        operand = value(node.operand)
        if operand is None:
            return None
        return in_subquery_linear(operand, [(value(item),) for item in node.items], node.negated)
    if isinstance(node, ast.Like):
        operand, pattern = value(node.operand), value(node.pattern)
        if operand is None or pattern is None:
            return None
        return (like_to_regex(str(pattern)).match(str(operand)) is not None) != node.negated
    assert isinstance(node, ast.FuncCall) and node.name == "COALESCE"
    return next((v for v in map(value, node.args) if v is not None), None)


#: Rows with NULLs, cross-type numerics, bools-as-ints, and boundary
#: strings — the inputs where a specialised kernel could drift from the
#: value-level definitions.
EDGE_ROWS = [
    (1, 2.5, "hello"),
    (None, None, None),
    (0, 0.0, ""),
    (-7, 1.0, "HELLO"),
    (2, -2.5, "h_llo"),
    (True, 2.0, "hel"),
    (1000000, 1e-9, "hello world"),
    (None, 3.5, "xyz"),
    (3, None, "hello"),
]

BATCH_EXPRESSIONS = [
    "a = 1",
    "a <> 1",
    "a < 2",
    "a <= 0",
    "a > -1",
    "a >= 1000000",
    "1 < a",  # flipped orientation normalizes to a > 1
    "2.5 >= b",
    "b = 2.5",
    "s = 'hello'",
    "s < 'i'",
    "s LIKE 'he%'",
    "s LIKE '%l_o'",
    "s LIKE @pat",
    "a = @x",
    "a IS NULL",
    "b IS NOT NULL",
    "a = 1 AND b > 0",
    "a = 1 OR s = 'xyz'",
    "NOT (a = 1)",
    "a + 1",
    "-b",
    "a BETWEEN 0 AND 2",
    "a IN (1, 2, NULL)",
    "COALESCE(a, 99)",
    # Nodes over row-independent operands only: one value per chunk.
    "@x = 1",
    "@x <= 1000",
    "2 > @x",
    "@x + 1",
    "-@x",
    "NOT (@x = 5)",
    "@x = 1 AND 2 > 1",
    "@nope = 1 OR @x = 1",
    "@x IS NULL",
    "@nope IS NOT NULL",
    "@x IN (1, 2, NULL)",
    "@x BETWEEN 0 AND 2",
    "'hello' LIKE @pat",
    "a = @x + 1",
]


class TestBatchFormsMatchScalar:
    """Every kernel equals the value-level definitions, row for row."""

    PARAMS = {"x": 1, "pat": "h%o"}

    def _compiled(self, text):
        return ExpressionCompiler(SCHEMA).compile(parse_expression(text))

    def _expected(self, text, rows):
        node = parse_expression(text)
        return [oracle(node, row, self.PARAMS) for row in rows]

    @pytest.mark.parametrize("text", BATCH_EXPRESSIONS)
    def test_batch_equals_scalar_on_edge_rows(self, text):
        compiled = self._compiled(text)
        ctx = ExecutionContext(params=self.PARAMS)
        expected = self._expected(text, EDGE_ROWS)
        assert compiled(EDGE_ROWS, ctx) == expected
        assert [evaluate_kernel(compiled, ctx, row) for row in EDGE_ROWS] == expected

    @pytest.mark.parametrize("text", BATCH_EXPRESSIONS)
    def test_batch_of_empty_chunk_is_empty(self, text):
        compiled = self._compiled(text)
        assert compiled([], ExecutionContext(params=self.PARAMS)) == []

    def test_temporal_batch_fast_path(self):
        schema = Schema([Column("d", DATE)])
        compiled = ExpressionCompiler(schema).compile(
            parse_expression("d >= '2003-01-05'")
        )
        rows = [
            (datetime.date(2003, 1, 4),),
            (datetime.date(2003, 1, 5),),
            (None,),
            (datetime.date(2003, 1, 6),),
        ]
        expected = [sql_compare(">=", row[0], "2003-01-05") for row in rows]
        assert expected == [False, True, None, True]
        assert compiled(rows, ExecutionContext()) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-50, 50), st.booleans()),
                st.one_of(st.none(), st.floats(-50, 50, allow_nan=False)),
                st.one_of(st.none(), st.text(alphabet="abchelo_%", max_size=8)),
            ),
            max_size=20,
        ),
        st.sampled_from(
            ["a < 3", "a <= 0", "a >= @x", "b <= 1.5", "s = 'he'", "s LIKE 'h%'",
             "s LIKE '%l_o'", "a = 1 AND b > 0", "a IS NULL OR s <> 'x'"]
        ),
    )
    def test_property_batch_matches_scalar(self, rows, text):
        compiled = self._compiled(text)
        ctx = ExecutionContext(params=self.PARAMS)
        assert compiled(rows, ctx) == self._expected(text, rows)


class _Database:
    """What ``STALENESS()`` reads off a database."""

    @staticmethod
    def replication_staleness():
        return 0.0


SUBQUERY = ast.Select(
    items=(ast.SelectItem(ast.ColumnRef("x")),), from_clause=ast.TableName(("u",))
)

#: One expression per node type and function the compiler accepts.
LENGTH_EXPRESSIONS = {
    "literal": ast.Literal(42),
    "null literal": ast.Literal(None),
    "column": ast.ColumnRef("a"),
    "parameter": ast.Parameter("x"),
    "and": parse_expression("a = 1 AND b > 0"),
    "or": parse_expression("a = 1 OR b > 0"),
    "column comparison": parse_expression("a < b"),
    "constant comparison": parse_expression("1 < a"),
    "+": parse_expression("a + 1"),
    "-": parse_expression("a - b"),
    "*": parse_expression("a * 2"),
    "/": parse_expression("a / 2"),
    "%": parse_expression("a % 2"),
    "not": parse_expression("NOT (a = 1)"),
    "negate": parse_expression("-a"),
    "is null": parse_expression("a IS NULL"),
    "is not null": parse_expression("a IS NOT NULL"),
    "in list": parse_expression("a NOT IN (1, NULL)"),
    "in subquery": ast.InSubquery(ast.ColumnRef("a"), SUBQUERY),
    "between": parse_expression("a BETWEEN 0 AND 2"),
    "not between": parse_expression("a NOT BETWEEN 0 AND 2"),
    "like literal": parse_expression("s LIKE 'h%'"),
    "like parameter": parse_expression("s NOT LIKE @pat"),
    "like column": parse_expression("s LIKE s"),
    "case": parse_expression("CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' END"),
    "case else": parse_expression("CASE WHEN a = 1 THEN 'one' ELSE 'other' END"),
    "exists": ast.Exists(SUBQUERY),
    "not exists": ast.Exists(SUBQUERY, negated=True),
    "scalar subquery": ast.ScalarSubquery(SUBQUERY),
    "constant comparison guard": parse_expression("@x <= 1000"),
    "constant arithmetic": parse_expression("@x + 1"),
    "constant negate": parse_expression("-@x"),
    "constant not": parse_expression("NOT (@x = 5)"),
    "constant and": parse_expression("@x = 1 AND 2 > 1"),
    "constant is null": parse_expression("@x IS NULL"),
    "constant in list": parse_expression("@x IN (1, NULL)"),
    "constant like": parse_expression("'abc' LIKE @pat"),
    "constant function": parse_expression("ABS(@x)"),
    "staleness guard": parse_expression("STALENESS() <= 5"),
    "column against constant arithmetic": parse_expression("a = @x + 1"),
    **{
        name: parse_expression(text)
        for name, text in [
            ("UPPER", "UPPER(s)"), ("LOWER", "LOWER(s)"), ("LTRIM", "LTRIM(s)"),
            ("RTRIM", "RTRIM(s)"), ("LEN", "LEN(s)"), ("ABS", "ABS(a)"),
            ("ROUND", "ROUND(b, 1)"), ("SUBSTRING", "SUBSTRING(s, 1, 2)"),
            ("CHARINDEX", "CHARINDEX('l', s)"), ("FLOOR", "FLOOR(b)"),
            ("CEILING", "CEILING(b)"), ("COALESCE", "COALESCE(a, 0)"),
            ("ISNULL", "ISNULL(a, 0)"), ("GETDATE", "GETDATE()"),
            ("STALENESS", "STALENESS()"), ("YEAR", "YEAR(GETDATE())"),
            ("MONTH", "MONTH(GETDATE())"), ("DAY", "DAY(GETDATE())"),
        ]
    },
}  # fmt: skip


def test_length_expressions_cover_every_node_type():
    compilable = {
        name[len("_compile_"):]
        for name in dir(ExpressionCompiler)
        if name.startswith("_compile_") and name != "_compile_star"
    }
    covered = {
        type(node).__name__.lower()
        for expression in LENGTH_EXPRESSIONS.values()
        for node in ast.walk_expression(expression)
    }
    assert compilable <= covered


@pytest.mark.parametrize("name", sorted(LENGTH_EXPRESSIONS))
def test_kernel_gives_one_value_per_row(name):
    """The length contract: an empty chunk gives ``[]``, an n-row chunk
    n values."""
    compiled = ExpressionCompiler(SCHEMA).compile(LENGTH_EXPRESSIONS[name])

    def context():
        return ExecutionContext(
            database=_Database(),
            params={"x": 1, "pat": "h%"},
            subquery_executor=lambda select, params: [(1,)],
        )

    assert compiled([], context()) == []
    values = compiled(EDGE_ROWS, context())
    assert isinstance(values, list) and len(values) == len(EDGE_ROWS)
    assert evaluate_kernel(compiled, context(), EDGE_ROWS[0]) == values[0]


LAZY_SCHEMA = Schema([Column("k", INT), Column("d", INT)])


def run_lazy(text, rows):
    compiled = ExpressionCompiler(LAZY_SCHEMA).compile(parse_expression(text))
    return compiled(rows, ExecutionContext())


class TestLaziness:
    """A CASE branch, and a COALESCE or ISNULL argument, runs only on the
    rows that reach it — rows that do not reach it share the chunk."""

    def test_case_branch_runs_only_where_its_condition_holds(self):
        text = "CASE WHEN k = 1 THEN 0 ELSE 10 / (k - 1) END"
        assert run_lazy(text, [(1, 0), (2, 0), (None, 0)]) == [0, 10, None]

    def test_case_condition_runs_only_where_no_earlier_when_held(self):
        text = "CASE WHEN k = 1 THEN 0 WHEN 10 / (k - 1) > 5 THEN 1 ELSE 2 END"
        assert run_lazy(text, [(1, 0), (2, 0), (3, 0)]) == [0, 1, 2]

    def test_case_branch_still_runs_on_the_rows_that_reach_it(self):
        with pytest.raises(ExecutionError, match="division by zero"):
            run_lazy("CASE WHEN k = 1 THEN 10 / d ELSE 0 END", [(2, 0), (1, 0)])

    @pytest.mark.parametrize("function", ["COALESCE", "ISNULL"])
    def test_fallback_runs_only_on_null_rows(self, function):
        text = f"{function}(k, 10 / d)"
        assert run_lazy(text, [(1, 0), (None, 2), (3, 0)]) == [1, 5, 3]
        assert run_lazy("COALESCE(k, 1 / 0)", [(1, 0), (2, 0)]) == [1, 2]
        with pytest.raises(ExecutionError, match="division by zero"):
            run_lazy(text, [(1, 0), (None, 0)])


class TestRowIndependentNodes:
    """An eager node whose operands are all row-independent computes its
    value once per call and repeats it; a lazy one stays lazy."""

    HOISTED = ["@x <= 1000", "@x + 1", "-@x", "NOT (@x = 5)", "@x = 1 AND 2 > 1",
               "@x IS NULL", "@x IN (1, NULL)", "'abc' LIKE @pat", "ABS(@x)",
               "STALENESS() <= 5", "1 / 0"]  # fmt: skip

    @pytest.mark.parametrize("text", HOISTED)
    def test_is_row_independent(self, text):
        assert _is_row_independent(ExpressionCompiler(SCHEMA).compile(parse_expression(text)))

    @pytest.mark.parametrize(
        "text",
        ["a + 1", "a = @x", "CASE WHEN @x = 0 THEN 0 ELSE 1 END", "COALESCE(@x, 1)"],
    )
    def test_row_dependent_and_lazy_nodes_are_not(self, text):
        compiled = ExpressionCompiler(SCHEMA).compile(parse_expression(text))
        assert not _is_row_independent(compiled)

    def test_value_is_computed_once_per_call(self):
        class Counting(ExecutionContext):
            reads = 0

            def param(self, name):
                Counting.reads += 1
                return super().param(name)

        compiled = ExpressionCompiler(SCHEMA).compile(parse_expression("-(@x + 1) * 2"))
        assert compiled(EDGE_ROWS, Counting(params={"x": 1})) == [-4] * len(EDGE_ROWS)
        assert Counting.reads == 1

    def test_empty_batch_evaluates_nothing(self):
        compiled = ExpressionCompiler(SCHEMA).compile(parse_expression("@x / 0"))
        ctx = ExecutionContext(params={"x": 1})
        assert compiled([], ctx) == []
        with pytest.raises(ExecutionError, match="division by zero"):
            compiled(EDGE_ROWS[:1], ctx)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("CASE WHEN @x = 0 THEN 0 ELSE 1 / @x END", 0),
            ("COALESCE(@y, 1 / @x)", 7),
            ("ISNULL(@y, 1 / @x)", 7),
        ],
    )
    def test_lazy_nodes_over_constants_stay_lazy(self, text, expected):
        compiled = ExpressionCompiler(SCHEMA).compile(parse_expression(text))
        ctx = ExecutionContext(params={"x": 0, "y": 7})
        assert compiled(EDGE_ROWS, ctx) == [expected] * len(EDGE_ROWS)


class TestModulo:
    """``%`` truncates like T-SQL: exact on integers of any size, and the
    remainder takes the dividend's sign."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("100000000000000001 % 3", 2),
            ("9223372036854775807 % 10", 7),
            ("-7 % 3", -1),
            ("7 % -3", 1),
            ("7.5 % 2", 1.5),
            ("-7.5 % 2", -1.5),
        ],
    )
    def test_remainder(self, text, expected):
        value = evaluate(text)
        assert value == expected and type(value) is type(expected)

    def test_modulo_by_zero(self):
        with pytest.raises(ExecutionError, match="modulo by zero"):
            evaluate("7 % 0")

    def test_through_a_server(self):
        from repro import Server

        server = Server("modulo")
        server.create_database("db")
        result = server.execute("SELECT 9223372036854775807 % 10", database="db")
        assert result.rows == [(7,)]


TYPED_SCHEMA = Schema(
    [Column("name", VARCHAR(20)), Column("k", INT), Column("d", DATE)]
)
TYPED_ROW = ("widget", 3, datetime.date(2003, 6, 9))

MISTYPED = [
    ("-name", {}),
    ("-@p", {"p": "x"}),
    ("ABS(name)", {}),
    ("ROUND(name, 1)", {}),
    ("FLOOR(d)", {}),
    ("YEAR(k)", {}),
    ("SUBSTRING(name, 'a', 1)", {}),
]


@pytest.mark.parametrize("text, params", MISTYPED, ids=[text for text, _ in MISTYPED])
def test_mistyped_operand_is_a_type_check_error(text, params):
    compiled = ExpressionCompiler(TYPED_SCHEMA).compile(parse_expression(text))
    with pytest.raises(TypeCheckError):
        evaluate_kernel(compiled, ExecutionContext(params=params), TYPED_ROW)


def test_mistyped_parameter_reaches_the_client_as_a_type_check_error():
    from repro import Server
    from repro.client import connect

    server = Server("typed")
    server.create_database("db")
    server.execute("CREATE TABLE t (name VARCHAR(20))", database="db")
    server.execute("INSERT INTO t (name) VALUES ('widget')", database="db")
    cursor = connect(server, database="db").cursor()
    with pytest.raises(TypeCheckError):
        cursor.execute("SELECT -@p", {"p": "x"})
    with pytest.raises(TypeCheckError):
        cursor.execute("SELECT -name FROM t")


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("predicate", ["d = @p", "d >= @p"])
def test_malformed_date_string_parameter_is_a_type_check_error(indexed, predicate):
    """A string that is no ISO date, compared with a DATE column, is the
    operands' type error whether a filter or an index seek meets it."""
    from repro import Server

    server = Server("dates")
    server.create_database("db")
    server.execute("CREATE TABLE t (k INT PRIMARY KEY, d DATE)", database="db")
    if indexed:
        server.execute("CREATE INDEX ix_t_d ON t (d)", database="db")
    server.execute("INSERT INTO t (k, d) VALUES (1, '2003-06-09')", database="db")
    server.execute("INSERT INTO t (k, d) VALUES (2, '2003-06-10')", database="db")
    sql = f"SELECT k FROM t WHERE {predicate}"
    plan = "\n".join(row[0] for row in server.execute(f"EXPLAIN {sql}", database="db").rows)
    assert ("ix_t_d" in plan) == indexed
    assert server.execute(sql, {"p": "2003-06-10"}, database="db").rows == [(2,)]
    with pytest.raises(TypeCheckError, match="garbage"):
        server.execute(sql, {"p": "garbage"}, database="db")
