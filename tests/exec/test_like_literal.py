"""LIKE with a literal core answers exactly what its regex answers.

A pattern ``%lit%``, ``lit%``, ``%lit`` or ``lit`` (no ``_``, an ASCII
literal) tests an ASCII value by lowered string containment, prefix,
suffix or equality; every other pattern, and every non-ASCII value, runs
the IGNORECASE regex. The property: whatever the pattern and the value —
characters ``re.IGNORECASE`` folds into ASCII (the Kelvin sign, ``ſ``,
``İ``, ``ı``), newlines the regex's ``$`` accepts before the end, ``%%``,
``_``, NULL operand or pattern, ``NOT LIKE``, a constant or a parameter
pattern — the answer is ``like_to_regex(pattern).match``'s.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Column, Schema
from repro.common.types import VARCHAR
from repro.exec.context import ExecutionContext
from repro.exec.expressions import (
    ExpressionCompiler,
    compiled_like_pattern,
    evaluate,
    like_to_regex,
)
from repro.sql import parse_expression

#: ASCII letters with non-ASCII case partners under re.IGNORECASE, those
#: partners, wildcards, a newline and a non-letter.
ALPHABET = list("akKsSiIe\n%_ ") + ["\u212a", "\u017f", "\u0130", "\u0131", "\u00e9"]
TEXT = st.text(alphabet=st.sampled_from(ALPHABET), max_size=6)
LITERAL = st.text(alphabet=st.sampled_from([c for c in ALPHABET if c not in "%_"]), max_size=4)
SHAPES = ["{}", "%{}", "{}%", "%{}%", "%%{}", "{}%%", "_{}", "%{}_%"]
#: What a literal character may meet in a value the regex would match:
#: its other case and the non-ASCII characters IGNORECASE folds onto it.
FOLDS = {"k": "kK\u212a", "s": "sS\u017f", "i": "iI\u0130\u0131", "a": "aA", "e": "eE\u00e9"}
SCHEMA = Schema([Column("s", VARCHAR(20), qualifier="t")])


@st.composite
def cases(draw):
    """A pattern — a literal in one of ``SHAPES``, or arbitrary text — and
    values: NULLs, integers, arbitrary text, and the literal itself with
    folded characters, text around it and trailing newlines."""
    literal = draw(LITERAL)
    pattern = draw(st.one_of(st.sampled_from(SHAPES).map(lambda s: s.format(literal)), TEXT))
    values = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["near", "near", "text", "null", "int"]))
        if kind == "near":
            core = "".join(draw(st.sampled_from(FOLDS.get(c.lower(), c))) for c in literal)
            before = draw(st.sampled_from(["", "a", "\n"]))
            values.append(before + core + draw(st.sampled_from(["", "\n", "e", "\n\n"])))
        elif kind == "text":
            values.append(draw(TEXT))
        elif kind == "null":
            values.append(None)
        else:
            values.append(draw(st.integers(-20, 20)))
    return pattern, values


def regex_answer(pattern, value, negated=False):
    if pattern is None or value is None:
        return None
    matched = like_to_regex(pattern).match(str(value)) is not None
    return matched != negated


@settings(max_examples=500, deadline=None)
@given(cases())
def test_compiled_pattern_matches_the_regex(case):
    pattern, values = case
    like = compiled_like_pattern(pattern)
    assert like.matches(values) == [regex_answer(pattern, value) for value in values]
    for value in values:
        if value is not None:
            assert like.match(value) is regex_answer(pattern, value)


@settings(max_examples=200, deadline=None)
@given(cases(), st.booleans(), st.booleans())
def test_constant_and_parameter_patterns_agree_with_the_regex(case, null_pattern, negated):
    pattern, values = case
    pattern = None if null_pattern else pattern
    operator = "NOT LIKE" if negated else "LIKE"
    rows = [(value,) for value in values]
    ctx = ExecutionContext(params={"p": pattern})
    expected = [regex_answer(pattern, value, negated) for value in values]
    compiler = ExpressionCompiler(SCHEMA)
    forms = [compiler.compile(parse_expression(f"s {operator} @p"))]
    if pattern is not None:
        literal = "'" + pattern.replace("'", "''") + "'"
        forms.append(compiler.compile(parse_expression(f"s {operator} {literal}")))
    for compiled in forms:
        assert compiled(rows, ctx) == expected
        assert [evaluate(compiled, ctx, row) for row in rows] == expected
