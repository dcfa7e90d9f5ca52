"""The literal-lifted normal form (``repro.sql.lift_literals``)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import RESERVED_PREFIX, ast, lift_literals, overlay, parse_statements
from repro.sql.lexer import TokenType, tokenize

POINT = "SELECT cid, cname, region FROM customer WHERE cid = "


class TestSafeList:
    @pytest.mark.parametrize(
        "sql, template, values",
        [
            (POINT + "4711", POINT + "@__li1", {"__li1": 4711}),
            (
                "SELECT a FROM t WHERE a <> 1 AND b >= 2.5 AND c < 'x'",
                "SELECT a FROM t WHERE a <> @__li1 AND b >= @__lf2 AND c < @__ls3",
                {"__li1": 1, "__lf2": 2.5, "__ls3": "x"},
            ),
            (
                "SELECT a FROM t WHERE a BETWEEN 3 AND 70 AND b NOT IN (1, 'two', 3.0)",
                "SELECT a FROM t WHERE a BETWEEN @__li1 AND @__li2 "
                "AND b NOT IN (@__li3, @__ls4, @__lf5)",
                {"__li1": 3, "__li2": 70, "__li3": 1, "__ls4": "two", "__lf5": 3.0},
            ),
            (
                "SELECT a FROM t JOIN u ON t.k = u.k AND u.flag = 1 WHERE t.a = 2",
                "SELECT a FROM t JOIN u ON t.k = u.k AND u.flag = @__li1 WHERE t.a = @__li2",
                {"__li1": 1, "__li2": 2},
            ),
            (
                "UPDATE t SET a = 5, b = 'x' WHERE c = 6",
                "UPDATE t SET a = @__li1, b = @__ls2 WHERE c = @__li3",
                {"__li1": 5, "__ls2": "x", "__li3": 6},
            ),
            (
                "DELETE FROM t WHERE c = 6",
                "DELETE FROM t WHERE c = @__li1",
                {"__li1": 6},
            ),
            (
                "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
                "INSERT INTO t (a, b) VALUES (@__li1, @__ls2), (@__li3, NULL)",
                {"__li1": 1, "__ls2": "x", "__li3": 2},
            ),
            (
                "EXEC p 1, 'a', @x = 5, @y = 'it''s', @z = NULL",
                "EXEC p @__li1, @__ls2, @x = @__li3, @y = @__ls4, @z = NULL",
                {"__li1": 1, "__ls2": "a", "__li3": 5, "__ls4": "it's"},
            ),
            (
                "EXPLAIN SELECT a FROM t WHERE a = 1; SELECT b FROM u WHERE b = 1",
                "EXPLAIN SELECT a FROM t WHERE a = @__li1; SELECT b FROM u WHERE b = @__li1",
                {"__li1": 1},
            ),
            (
                "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE c = 3 GROUP BY b "
                "HAVING COUNT(*) > 2) AND d = 4",
                "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE c = @__li1 GROUP BY b "
                "HAVING COUNT(*) > 2) AND d = @__li2",
                {"__li1": 3, "__li2": 4},
            ),
        ],
    )
    def test_operands_on_the_safe_list_lift(self, sql, template, values):
        assert lift_literals(sql) == (template, values)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT TOP 5 a FROM t",
            "SELECT TOP (5) a FROM t",
            "SELECT a FROM t WHERE b LIKE 'a%'",
            "SELECT a FROM t WHERE b NOT LIKE 'a' + '%'",
            "DECLARE @v VARCHAR(40)",
            "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(40), c NUMERIC(10, 2) DEFAULT 0)",
            "CREATE CACHED VIEW CustLow AS SELECT cid FROM customer WHERE cid <= 10000",
            "CREATE PROCEDURE p @a INT = 1 AS BEGIN UPDATE t SET b = 'x' WHERE a = @a + 1; "
            "SELECT a FROM t WHERE a IN (1, 2) END",
            "CREATE INDEX ix ON t (a); SELECT a FROM t WHERE a = 1",
            "SELECT a FROM t WITH FRESHNESS 10 SECONDS",
            "SELECT a, b FROM t ORDER BY 1",
            "SELECT a FROM t WHERE b IS NULL AND c IS NOT NULL",
            "SELECT 1, 'x', a + 2 FROM t GROUP BY a + 2 HAVING COUNT(*) > 3",
            "SELECT CASE WHEN a < 10 THEN 'lo' ELSE 'hi' END FROM t "
            "GROUP BY CASE WHEN a < 10 THEN 'lo' ELSE 'hi' END",
            "EXEC getBook @i_id = @i_id",
            "SELECT a1 FROM t2 WHERE c3 = @p4",
        ],
    )
    def test_everything_else_stays(self, sql):
        template, values = lift_literals(sql)
        assert template is sql
        assert values == {}

    def test_only_the_direct_operand_lifts(self):
        """An arithmetic tail or a function argument is not a direct
        operand: it stays, which is always correct, merely less shared."""
        assert lift_literals("SELECT a FROM t WHERE a = 5 + 1 AND f(b, 2) = 3") == (
            "SELECT a FROM t WHERE a = @__li1 + 1 AND f(b, 2) = @__li2",
            {"__li1": 5, "__li2": 3},
        )


class TestTypedAndShared:
    def test_types_get_distinct_templates(self):
        templates = {lift_literals(POINT + text)[0] for text in ("1", "1.0", "'1'", "1e0")}
        assert templates == {POINT + "@__li1", POINT + "@__lf1", POINT + "@__ls1"}
        assert [type(lift_literals(POINT + text)[1].popitem()[1]) for text in ("1", "1.0", "'1'")] == [
            int, float, str,
        ]  # fmt: skip

    def test_equal_values_share_a_marker(self):
        template, values = lift_literals(
            "SELECT a FROM t WHERE a < 10 AND b = '10' AND c > 10 AND d = 10.0 AND e = '10'"
        )
        assert template == (
            "SELECT a FROM t WHERE a < @__li1 AND b = @__ls2 AND c > @__li1 "
            "AND d = @__lf3 AND e = @__ls2"
        )
        assert values == {"__li1": 10, "__ls2": "10", "__lf3": 10.0}


class TestReservedMarkers:
    def test_a_text_using_the_prefix_is_left_alone(self):
        sql = "SELECT a FROM t WHERE a = @__li1 AND b = 2"
        assert lift_literals(sql) == (sql, {})

    def test_an_already_lifted_text_is_a_no_op(self):
        template, _ = lift_literals("UPDATE t SET a = a + 1 WHERE b = 2")
        assert template == "UPDATE t SET a = a + 1 WHERE b = @__li1"
        assert lift_literals(template) == (template, {})

    def test_overlay_keeps_the_callers_names(self):
        assert overlay({"__li1": 1}, None) == {"__li1": 1}
        assert overlay({"__li1": 1}, {"cid": 7}) == {"__li1": 1, "cid": 7}
        assert overlay({"__li1": 1}, {RESERVED_PREFIX + "i1": 9}) is None


class TestAgreesWithTheLexer:
    @pytest.mark.parametrize(
        "sql, template, values",
        [
            ("SELECT a FROM t WHERE a = 'it''s'", "SELECT a FROM t WHERE a = @__ls1", {"__ls1": "it's"}),
            ("SELECT a FROM t WHERE a = ''", "SELECT a FROM t WHERE a = @__ls1", {"__ls1": ""}),
            (
                "SELECT a FROM t WHERE a = 1 -- AND b = 2\n AND c = 3",
                "SELECT a FROM t WHERE a = @__li1 -- AND b = 2\n AND c = @__li2",
                {"__li1": 1, "__li2": 3},
            ),
            (
                "SELECT a FROM t WHERE a = 1 /* AND b = 2 */ AND c = /* 9 */ 3",
                "SELECT a FROM t WHERE a = @__li1 /* AND b = 2 */ AND c = /* 9 */ @__li2",
                {"__li1": 1, "__li2": 3},
            ),
            (
                "SELECT a FROM t WHERE [col = 1] = 2",
                "SELECT a FROM t WHERE [col = 1] = @__li1",
                {"__li1": 2},
            ),
            (
                "SELECT a FROM t WHERE a = 1e5 AND b = .5 AND c = 2.50",
                "SELECT a FROM t WHERE a = @__lf1 AND b = @__lf2 AND c = @__lf3",
                {"__lf1": 1e5, "__lf2": 0.5, "__lf3": 2.5},
            ),
            (
                "SELECT a FROM t WHERE a = -5 AND b IN (-1, +2) AND c = 7 - 3",
                "SELECT a FROM t WHERE a = -@__li1 AND b IN (-@__li2, +@__li3) AND c = @__li4 - 3",
                {"__li1": 5, "__li2": 1, "__li3": 2, "__li4": 7},
            ),
            ("SELECT a FROM t WHERE a != 1", "SELECT a FROM t WHERE a != @__li1", {"__li1": 1}),
        ],
    )
    def test_lexical_corners(self, sql, template, values):
        assert lift_literals(sql) == (template, values)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a FROM t WHERE a = 5abc",  # NUMBER then IDENT: a marker would swallow it
            "SELECT a FROM t WHERE a = 'x'y",
            "SELECT a FROM t WHERE a = 1e5e6",
            "SELECT a FROM t WHERE a == 1",  # '==' is one operator token, not a comparison
            "SELECT a FROM t WHERE a = 'unterminated",
            "' UPDATE t SET c0 = 's' ",  # two strings around the identifier s
        ],
    )
    def test_what_the_lexer_would_split_differently_stays(self, sql):
        assert lift_literals(sql) == (sql, {})


# -- property: the template is the text with literal tokens swapped -----------

_NUMBERS = st.sampled_from(["0", "1", "42", "10000", "2.5", ".5", "1e3", "7.25e2", "007"])
_STRINGS = st.sampled_from(["'s'", "'it''s'", "''", "'1'", "'a%'", "'-- no'", "'/* no */'", "'@__x'"])
_SIGNS = st.sampled_from(["", "", "", "-", "+", "- "])
_COLUMNS = st.sampled_from(["a", "b1", "t.c", "[n 1]", "[x = 2]"])
_COMPARE = st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">=", "=="])
_GAPS = st.sampled_from([" ", " ", " ", "\n", "  ", " /* c = 1 */ ", " -- x = 2\n", "\t"])
_NOISE = st.sampled_from(
    ["'", "''", "5z", "x'q'", "1e5e6", "@", "@p", ";", "(", ")", ",", ".", "7.", "--", "/*", "*/",
     "[", "]", "CREATE", "SELECT", "WHERE", "IN", "LIKE", "AND", "=", "-", "NULL", "1", "'s'"]
)  # fmt: skip


@st.composite
def _operands(draw):
    kind = draw(st.integers(0, 9))
    if kind <= 3:
        return draw(_SIGNS) + draw(_NUMBERS)
    if kind <= 5:
        return draw(_STRINGS)
    if kind == 6:
        return draw(st.sampled_from(["@p", "NULL", "b1"]))
    if kind == 7:
        return f"{draw(_NUMBERS)} {draw(st.sampled_from('+-*/'))} {draw(_NUMBERS)}"
    if kind == 8:
        return f"f({draw(_COLUMNS)}, {draw(_NUMBERS)})"
    return f"({draw(_NUMBERS)})"


@st.composite
def _predicates(draw, depth=0):
    kind = draw(st.integers(0, 9 if depth < 2 else 6))
    column = draw(_COLUMNS)
    if kind <= 1:
        return [column, draw(_COMPARE), draw(_operands())]
    if kind == 2:
        return [draw(_operands()), draw(_COMPARE), column]
    if kind == 3:
        return [column, "BETWEEN", draw(_operands()), "AND", draw(_operands())]
    if kind == 4:
        items = draw(st.lists(_operands(), min_size=1, max_size=3))
        negated = ["NOT"] if draw(st.booleans()) else []
        return [column] + negated + ["IN", "(" + ", ".join(items) + ")"]
    if kind == 5:
        return [column, "LIKE", draw(_STRINGS)]
    if kind == 6:
        return [column, "IS", "NULL"]
    if kind == 7:
        inner = draw(_predicates(depth + 1))
        return [column, "IN", "(", "SELECT", "a", "FROM", "u", "WHERE"] + inner + [")"]
    if kind == 8:
        return ["NOT", "("] + draw(_predicates(depth + 1)) + [")"]
    glue = draw(st.sampled_from(["AND", "OR"]))
    return draw(_predicates(depth + 1)) + [glue] + draw(_predicates(depth + 1))


@st.composite
def _statements(draw):
    kind = draw(st.integers(0, 5))
    where = (["WHERE"] + draw(_predicates())) if draw(st.integers(0, 3)) else []
    if kind <= 1:
        words = ["SELECT"]
        if draw(st.booleans()):
            words += ["TOP", draw(st.sampled_from(["5", "(5)"]))]
        words += [draw(st.sampled_from(["a", "a, 1, 'x'", "CASE WHEN a < 10 THEN 'lo' ELSE 'hi' END"]))]
        words += ["FROM", "t"]
        if draw(st.booleans()):
            words += ["JOIN", "u", "ON"] + draw(_predicates(2))
        words += where
        if draw(st.booleans()):
            words += ["GROUP", "BY", "a", "HAVING", "COUNT(*)", ">", draw(_NUMBERS)]
        if draw(st.booleans()):
            words += ["ORDER", "BY", draw(st.sampled_from(["1", "a DESC"]))]
        if draw(st.booleans()):
            words += ["WITH", "FRESHNESS", "10", "SECONDS"]
        return (["EXPLAIN"] if draw(st.booleans()) else []) + words
    if kind == 2:
        assignments = draw(st.lists(_operands(), min_size=1, max_size=2))
        sets = ", ".join(f"c{i} = {value}" for i, value in enumerate(assignments))
        return ["UPDATE", "t", "SET", sets] + where
    if kind == 3:
        return ["DELETE", "FROM", "t"] + where
    if kind == 4:
        rows = draw(st.lists(st.lists(_operands(), min_size=1, max_size=3), min_size=1, max_size=2))
        return ["INSERT", "INTO", "t", "VALUES", ", ".join("(" + ", ".join(r) + ")" for r in rows)]
    arguments = draw(st.lists(_operands(), min_size=0, max_size=3))
    named = draw(st.booleans())
    return ["EXEC", "p", ", ".join(f"@a{i} = {v}" if named else v for i, v in enumerate(arguments))]


@st.composite
def _texts(draw):
    """Mostly well-formed batches with hostile spacing, sometimes damaged."""
    words = []
    for index in range(draw(st.integers(1, 2))):
        words += ([";"] if index else []) + draw(_statements())
    if draw(st.integers(0, 3)) == 0:
        for _ in range(draw(st.integers(1, 2))):
            words.insert(draw(st.integers(0, len(words))), draw(_NOISE))
    return "".join(word + draw(_GAPS) for word in words)


def _bind(node, values):
    """The template's AST with the lifted values put back as literals
    (re-applying the parser's fold of a sign into a numeric literal)."""
    if isinstance(node, ast.Parameter) and node.name in values:
        return ast.Literal(values[node.name])
    if isinstance(node, (tuple, list)):
        return type(node)(_bind(item, values) for item in node)
    if isinstance(node, ast.Node):
        bound = type(node)(**{name: _bind(getattr(node, name), values) for name in node._fields})
        if (
            isinstance(bound, ast.UnaryOp)
            and bound.op == "-"
            and isinstance(node.operand, ast.Parameter)
            and isinstance(bound.operand, ast.Literal)
            and not isinstance(bound.operand.value, str)  # ``- 's'`` stays a UnaryOp
        ):
            return ast.Literal(-bound.operand.value)
        return bound
    return node


def _check_normal_form(text):
    """``(lifted anything, parsed)`` after checking rule 5 on ``text``."""
    template, values = lift_literals(text)
    try:
        expected = tokenize(text)
    except Exception as exc:
        with pytest.raises(type(exc)):
            tokenize(template)
        return bool(values), False
    actual = tokenize(template)
    assert len(actual) == len(expected)
    seen = {}
    for ours, theirs in zip(actual, expected):
        if ours.type is TokenType.PARAMETER and ours.value.startswith(RESERVED_PREFIX):
            assert theirs.type in (TokenType.NUMBER, TokenType.STRING)
            value, letter = values[ours.value], ours.value[len(RESERVED_PREFIX)]
            if theirs.type is TokenType.STRING:
                assert value == theirs.value and letter == "s"
            else:
                assert value == float(theirs.value) and letter in "if"
                assert isinstance(value, float) == (letter == "f")
            # one marker, one (type, value); one (type, value), one marker
            assert seen.setdefault(ours.value, (letter, value)) == (letter, value)
        else:
            assert (ours.type, ours.value) == (theirs.type, theirs.value)
    assert set(seen) == set(values)
    assert len(set(seen.values())) == len(seen)
    try:
        original = parse_statements(text)
    except Exception as exc:
        with pytest.raises(type(exc)):
            parse_statements(template)
        return bool(values), False
    assert [_bind(statement, values) for statement in parse_statements(template)] == original
    return bool(values), True


@settings(max_examples=500, deadline=None)
@given(_texts())
def test_property_template_is_the_text_with_literal_tokens_swapped(text):
    _check_normal_form(text)


def test_the_property_is_not_vacuous():
    """Most generated texts parse and lift something."""
    from hypothesis import HealthCheck, seed

    outcomes = []

    @seed(7)
    @settings(max_examples=300, deadline=None, database=None, suppress_health_check=list(HealthCheck))
    @given(_texts())
    def collect(text):
        outcomes.append(_check_normal_form(text))

    collect()
    assert sum(1 for lifted_any, parsed in outcomes if lifted_any and parsed) > len(outcomes) / 3
