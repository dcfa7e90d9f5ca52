"""Property: formatting preserves expression semantics.

MTCache ships plan fragments as SQL text, so ``format -> parse`` must not
change what an expression computes (operator precedence, associativity,
NULL handling). Hypothesis builds random expression ASTs, renders them,
reparses them, and compares evaluation results on both trees.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Column, Schema
from repro.common.types import FLOAT, INT
from repro.errors import ExecutionError, TypeCheckError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import ExpressionCompiler
from repro.exec.expressions import evaluate as evaluate_kernel
from repro.sql import ast, parse_expression
from repro.sql.formatter import format_expression

SCHEMA = Schema([Column("a", INT, qualifier="t"), Column("b", FLOAT, qualifier="t")])
ROW = (7, 2.5)


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        leaf = draw(st.integers(0, 3))
        if leaf == 0:
            return ast.Literal(draw(st.integers(-20, 20)))
        if leaf == 1:
            return ast.Literal(None)
        if leaf == 2:
            return ast.ColumnRef("a", "t")
        return ast.ColumnRef("b", "t")
    kind = draw(st.integers(0, 3))
    if kind == 0:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return ast.BinaryOp(
            op, draw(expressions(depth + 1)), draw(expressions(depth + 1))
        )
    if kind == 1:
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return ast.BinaryOp(
            op, draw(expressions(depth + 1)), draw(expressions(depth + 1))
        )
    if kind == 2:
        op = draw(st.sampled_from(["AND", "OR"]))
        return ast.BinaryOp(
            op, draw(expressions(depth + 1)), draw(expressions(depth + 1))
        )
    return ast.UnaryOp("NOT", draw(expressions(depth + 1)))


def evaluate(expression):
    compiled = ExpressionCompiler(SCHEMA).compile(expression)
    return evaluate_kernel(compiled, ExecutionContext(), ROW)


@settings(max_examples=300, deadline=None)
@given(expression=expressions())
def test_property_format_parse_preserves_semantics(expression):
    text = format_expression(expression)
    reparsed = parse_expression(text)
    try:
        original = evaluate(expression)
        original_error = None
    except (TypeCheckError, ExecutionError) as exc:
        original, original_error = None, type(exc)
    try:
        roundtrip = evaluate(reparsed)
        roundtrip_error = None
    except (TypeCheckError, ExecutionError) as exc:
        roundtrip, roundtrip_error = None, type(exc)
    assert original_error == roundtrip_error, text
    if original_error is None:
        assert original == roundtrip, text


@settings(max_examples=200, deadline=None)
@given(expression=expressions())
def test_property_format_is_stable(expression):
    once = format_expression(expression)
    twice = format_expression(parse_expression(once))
    assert once == twice
