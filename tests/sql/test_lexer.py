"""Lexer tests."""

import pytest

from repro.errors import LexError
from repro.sql.lexer import TokenType, tokenize


def types_of(sql):
    return [token.type for token in tokenize(sql)][:-1]  # drop EOF


def values_of(sql):
    return [token.value for token in tokenize(sql)][:-1]


class TestBasics:
    def test_keywords_uppercased(self):
        tokens = tokenize("select From WHERE")
        assert [t.value for t in tokens[:3]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:3])

    def test_identifiers_preserve_case(self):
        tokens = tokenize("MyTable")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "MyTable"

    def test_numbers(self):
        assert values_of("42 3.14 1e3") == ["42", "3.14", "1e3"]

    def test_string_literal(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].type is TokenType.STRING
        assert tokens[0].value == "hello world"

    def test_string_escaped_quote(self):
        tokens = tokenize("'O''Brien'")
        assert tokens[0].value == "O'Brien"

    def test_unterminated_string(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("'abc")

    def test_parameter(self):
        tokens = tokenize("@cid")
        assert tokens[0].type is TokenType.PARAMETER
        assert tokens[0].value == "cid"

    def test_parameter_requires_name(self):
        with pytest.raises(LexError):
            tokenize("@ ")

    def test_bracket_identifier(self):
        tokens = tokenize("[order table]")
        assert tokens[0].type is TokenType.IDENT
        assert tokens[0].value == "order table"


class TestOperatorsAndComments:
    def test_two_char_operators(self):
        assert values_of("a <= b >= c <> d != e") == [
            "a", "<=", "b", ">=", "c", "<>", "d", "<>", "e",
        ]

    def test_punctuation(self):
        assert types_of("(a, b.c);") == [
            TokenType.LPAREN,
            TokenType.IDENT,
            TokenType.COMMA,
            TokenType.IDENT,
            TokenType.DOT,
            TokenType.IDENT,
            TokenType.RPAREN,
            TokenType.SEMICOLON,
        ]

    def test_line_comment(self):
        assert values_of("a -- comment here\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values_of("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")

    def test_star_token(self):
        tokens = tokenize("select *")
        assert tokens[1].type is TokenType.STAR

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_unexpected_character(self):
        with pytest.raises(LexError, match="unexpected"):
            tokenize("a ~ b")


class TestErrorPositions:
    """Every ``LexError`` names its 1-based line and column on multi-line
    input: the token's start, or the end of the text for a comment that
    never closes."""

    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            ("SELECT a\nFROM t\nWHERE b = 'abc\n  def", "unterminated string literal", 3, 11),
            ("SELECT a\n  FROM t /* note\n never\n ends", "unterminated block comment", 4, 6),
            ("SELECT a\nFROM   [order table\n", "unterminated [identifier]", 2, 8),
            (
                "SELECT a\n  FROM t\n WHERE x = @ ",
                "'@' must be followed by a parameter name",
                3,
                12,
            ),
            ("SELECT a\nFROM t\n  WHERE a ~ b", "unexpected character '~'", 3, 11),
        ],
    )
    def test_message_line_and_column(self, text, message, line, column):
        with pytest.raises(LexError) as caught:
            tokenize(text)
        assert str(caught.value) == f"{message} (line {line}, column {column})"
        assert (caught.value.line, caught.value.column) == (line, column)

    def test_tokens_after_a_multi_line_string_and_comment_keep_their_position(self):
        tokens = tokenize("a 'x\ny' /* p\nq */\n\tb")
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("a", 1, 1), ("x\ny", 1, 3), ("b", 4, 2), ("", 4, 3),
        ]

    def test_a_string_never_ends_inside_an_escaped_quote(self):
        with pytest.raises(LexError) as caught:
            tokenize("INSERT '\nINTO t VALUES ('', 1)")
        assert (caught.value.line, caught.value.column) == (1, 8)

    def test_a_number_has_at_most_one_exponent(self):
        assert values_of("1e5e6") == ["1e5", "e6"]
