"""Predicate analysis: conjunct splitting, normalization, implication.

Implication correctness is the foundation of view-matching soundness: a
wrong guard would silently return wrong rows from a cached view, so the
property tests verify guards against brute-force evaluation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.context import ExecutionContext
from repro.exec.expressions import ExpressionCompiler, evaluate
from repro.common.schema import Schema
from repro.optimizer.predicates import (
    and_together,
    implies,
    negate,
    normalize_comparison,
    split_conjuncts,
)
from repro.sql import ast, parse_expression


class TestSplitConjuncts:
    def test_flat_and(self):
        parts = split_conjuncts(parse_expression("a = 1 AND b = 2 AND c = 3"))
        assert len(parts) == 3

    def test_or_stays_opaque(self):
        parts = split_conjuncts(parse_expression("a = 1 OR b = 2"))
        assert len(parts) == 1

    def test_between_splits_to_bounds(self):
        parts = split_conjuncts(parse_expression("a BETWEEN 1 AND 5"))
        ops = sorted(part.op for part in parts)
        assert ops == ["<=", ">="]

    def test_negated_between_does_not_split(self):
        parts = split_conjuncts(parse_expression("a NOT BETWEEN 1 AND 5"))
        assert len(parts) == 1
        assert isinstance(parts[0], ast.Between)

    def test_none_gives_empty(self):
        assert split_conjuncts(None) == []

    def test_and_together_roundtrip(self):
        parts = split_conjuncts(parse_expression("a = 1 AND b = 2"))
        combined = and_together(parts)
        assert sorted(
            (c.left.name for c in split_conjuncts(combined))
        ) == ["a", "b"]

    def test_and_together_empty(self):
        assert and_together([]) is None


class TestNormalizeComparison:
    def test_column_op_literal(self):
        comparison = normalize_comparison(parse_expression("cid <= 1000"))
        assert comparison.column.name == "cid"
        assert comparison.op == "<="
        assert comparison.constant == 1000

    def test_reversed_orientation_flips(self):
        comparison = normalize_comparison(parse_expression("1000 >= cid"))
        assert comparison.op == "<="
        assert comparison.column.name == "cid"

    def test_parameter_operand(self):
        comparison = normalize_comparison(parse_expression("cid = @cid"))
        assert comparison.is_parameterized

    def test_non_simple_returns_none(self):
        assert normalize_comparison(parse_expression("a + 1 = 2")) is None
        assert normalize_comparison(parse_expression("a LIKE 'x'")) is None
        assert normalize_comparison(parse_expression("a = b")) is None


def check(query_text, view_text):
    """Run the implication check for single conjuncts."""
    query = [normalize_comparison(parse_expression(query_text))]
    view = normalize_comparison(parse_expression(view_text))
    return implies([c for c in query if c], view)


class TestConstantImplication:
    def test_tighter_upper_bound(self):
        assert check("cid <= 500", "cid <= 1000").implied

    def test_equal_bound(self):
        assert check("cid <= 1000", "cid <= 1000").implied

    def test_looser_bound_fails(self):
        assert not check("cid <= 2000", "cid <= 1000").implied

    def test_strict_vs_inclusive_boundary(self):
        assert check("cid < 1000", "cid <= 1000").implied
        assert not check("cid <= 1000", "cid < 1000").implied
        assert check("cid < 1000", "cid < 1000").implied

    def test_equality_inside_range(self):
        assert check("cid = 7", "cid <= 1000").implied
        assert not check("cid = 1001", "cid <= 1000").implied

    def test_lower_bounds(self):
        assert check("cid >= 500", "cid >= 100").implied
        assert not check("cid >= 50", "cid >= 100").implied

    def test_opposite_directions_fail(self):
        assert not check("cid >= 500", "cid <= 1000").implied

    def test_unrelated_column_fails(self):
        assert not check("other <= 10", "cid <= 1000").implied

    def test_equality_to_equality(self):
        assert check("cid = 5", "cid = 5").implied
        assert not check("cid = 6", "cid = 5").implied


class TestParameterGuards:
    def evaluate_guard(self, guard, params):
        blank = ExpressionCompiler(Schema(()))
        return evaluate(blank.compile(guard), ExecutionContext(params=params))

    def test_le_param_generates_guard(self):
        outcome = check("cid <= @cid", "cid <= 1000")
        assert outcome.implied and outcome.guard is not None
        assert self.evaluate_guard(outcome.guard, {"cid": 900}) is True
        assert self.evaluate_guard(outcome.guard, {"cid": 1100}) is False

    def test_eq_param_guard(self):
        outcome = check("cid = @cid", "cid <= 1000")
        assert self.evaluate_guard(outcome.guard, {"cid": 1000}) is True
        assert self.evaluate_guard(outcome.guard, {"cid": 1001}) is False

    def test_ge_param_guard(self):
        outcome = check("cid >= @cid", "cid >= 100")
        assert self.evaluate_guard(outcome.guard, {"cid": 100}) is True
        assert self.evaluate_guard(outcome.guard, {"cid": 50}) is False

    def test_param_wrong_direction_fails(self):
        assert not check("cid >= @cid", "cid <= 1000").implied

    @settings(max_examples=200, deadline=None)
    @given(
        query_op=st.sampled_from(["<", "<=", "=", ">", ">="]),
        view_op=st.sampled_from(["<", "<=", ">", ">=", "="]),
        view_k=st.integers(-50, 50),
        param=st.integers(-60, 60),
        value=st.integers(-60, 60),
    )
    def test_property_guards_are_sound(self, query_op, view_op, view_k, param, value):
        """If the guard passes, every row satisfying the query predicate
        must satisfy the view predicate (guard soundness)."""
        outcome = check(f"cid {query_op} @p", f"cid {view_op} {view_k}")
        if not outcome.implied or outcome.guard is None:
            return
        guard_true = self.evaluate_guard(outcome.guard, {"p": param})
        if guard_true is not True:
            return
        ops = {
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
            "=": lambda a, b: a == b,
        }
        if ops[query_op](value, param):  # row satisfies query predicate
            assert ops[view_op](value, view_k)  # then it is in the view


class TestMultiConjunctImplication:
    def test_one_of_many_query_conjuncts_suffices(self):
        query = [
            normalize_comparison(parse_expression("cid <= 500")),
            normalize_comparison(parse_expression("name = 'x'")),
        ]
        view = normalize_comparison(parse_expression("cid <= 1000"))
        assert implies([c for c in query if c], view).implied


class TestNegate:
    @pytest.mark.parametrize(
        "text,expected_op",
        [("a = 1", "<>"), ("a < 1", ">="), ("a >= 1", "<")],
    )
    def test_comparison_negation(self, text, expected_op):
        negated = negate(parse_expression(text))
        assert negated.op == expected_op

    def test_opaque_wrapped_in_not(self):
        negated = negate(parse_expression("a LIKE 'x'"))
        assert isinstance(negated, ast.UnaryOp)
