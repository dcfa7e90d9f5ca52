"""Expression evaluation: SQL semantics including three-valued logic."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Column, Schema
from repro.common.types import FLOAT, INT, VARCHAR
from repro.errors import ExecutionError, TypeCheckError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import (
    ExpressionCompiler,
    _coerce_pair,
    batch_form,
    compiled_like_pattern,
    like_to_regex,
    sql_and,
    sql_compare,
    sql_not,
    sql_or,
)
from repro.sql import parse_expression

SCHEMA = Schema(
    [
        Column("a", INT, qualifier="t"),
        Column("b", FLOAT, qualifier="t"),
        Column("s", VARCHAR(20), qualifier="t"),
    ]
)


def evaluate(text, row=(1, 2.5, "hello"), params=None):
    compiled = ExpressionCompiler(SCHEMA).compile(parse_expression(text))
    return compiled(row, ExecutionContext(params=params or {}))


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
        assert compiled((datetime.date(2003, 1, 6),), ExecutionContext()) is True


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
        assert compiled(("a.bc",), ExecutionContext()) is True
        assert compiled(("axbc",), ExecutionContext()) is False

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
        value = compiled((1, 2.5, "x"), ExecutionContext(clock=clock))
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


#: Rows with NULLs, cross-type numerics, bools-as-ints, and boundary
#: strings — the inputs where a vectorized fast path could drift from
#: the scalar semantics.
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
]


class TestBatchFormsMatchScalar:
    """Every compiled batch closure must equal the scalar map, row for row."""

    PARAMS = {"x": 1, "pat": "h%o"}

    def _compiled(self, text):
        return ExpressionCompiler(SCHEMA).compile(parse_expression(text))

    @pytest.mark.parametrize("text", BATCH_EXPRESSIONS)
    def test_batch_equals_scalar_on_edge_rows(self, text):
        compiled = self._compiled(text)
        ctx = ExecutionContext(params=self.PARAMS)
        expected = [compiled(row, ctx) for row in EDGE_ROWS]
        assert batch_form(compiled)(EDGE_ROWS, ctx) == expected

    @pytest.mark.parametrize("text", BATCH_EXPRESSIONS)
    def test_batch_of_empty_chunk_is_empty(self, text):
        compiled = self._compiled(text)
        assert batch_form(compiled)([], ExecutionContext(params=self.PARAMS)) == []

    def test_temporal_batch_fast_path(self):
        schema = Schema([Column("d", INT)])
        compiled = ExpressionCompiler(schema).compile(
            parse_expression("d >= '2003-01-05'")
        )
        rows = [
            (datetime.date(2003, 1, 4),),
            (datetime.date(2003, 1, 5),),
            (None,),
            (datetime.date(2003, 1, 6),),
        ]
        ctx = ExecutionContext()
        expected = [compiled(row, ctx) for row in rows]
        assert expected == [False, True, None, True]
        assert batch_form(compiled)(rows, ctx) == expected

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
            ["a < 3", "a >= @x", "b <= 1.5", "s = 'he'", "s LIKE 'h%'",
             "a = 1 AND b > 0", "a IS NULL OR s <> 'x'"]
        ),
    )
    def test_property_batch_matches_scalar(self, rows, text):
        compiled = self._compiled(text)
        ctx = ExecutionContext(params=self.PARAMS)
        expected = [compiled(row, ctx) for row in rows]
        assert batch_form(compiled)(rows, ctx) == expected
