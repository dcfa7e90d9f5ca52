"""Lexer for the T-SQL subset: one compiled pattern, one ``finditer`` loop.

:data:`TOKEN` is the dialect's one lexical grammar; :func:`tokenize` turns
its matches into a flat, EOF-terminated list of :class:`Token`, and
:func:`~repro.sql.lift.lift_literals` scans with the same pattern.
Keywords are recognised case-insensitively but identifiers preserve their
original spelling. ``@name`` produces a PARAMETER token (T-SQL
parameter/variable marker).
"""

from __future__ import annotations

import enum
import re
from typing import List

from repro.errors import LexError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    PARAMETER = "parameter"  # @name
    OPERATOR = "operator"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    DOT = "."
    SEMICOLON = ";"
    STAR = "*"
    EOF = "eof"


#: Reserved words recognised as keywords (uppercased).
KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC TOP DISTINCT ALL
    INSERT INTO VALUES UPDATE SET DELETE
    CREATE TABLE INDEX VIEW MATERIALIZED CACHED UNIQUE CLUSTERED DROP
    PROCEDURE PROC EXEC EXECUTE AS BEGIN END DECLARE RETURN IF ELSE WHILE
    PRINT
    JOIN INNER LEFT RIGHT FULL OUTER CROSS ON
    AND OR NOT NULL IS IN EXISTS BETWEEN LIKE CASE WHEN THEN
    UNION EXCEPT INTERSECT
    PRIMARY KEY FOREIGN REFERENCES NOT DEFAULT CHECK CONSTRAINT
    INT INTEGER BIGINT FLOAT REAL NUMERIC DECIMAL VARCHAR CHAR DATE DATETIME BIT
    TRANSACTION TRAN COMMIT ROLLBACK
    EXPLAIN
    WITH FRESHNESS SECONDS MINUTES
    GRANT REVOKE TO
    COUNT SUM AVG MIN MAX
    """.split()
)

#: One token after any whitespace and comments; a match with no group is
#: the end of the text. ``other`` takes any single character, so a
#: construct that never closes (a string, a ``[name]``, a block comment)
#: or a bare ``@`` surfaces as its opening character there. A string ends
#: at a quote not followed by another (``''`` inside is an escaped quote),
#: and a number has at most one exponent (``1e5e6`` is ``1e5`` then ``e6``).
TOKEN = re.compile(
    r"""(?:\s+|--[^\n]*|/\*.*?\*/)*(?:
      (?P<string>'(?:[^']|'')*'(?!'))
    | (?P<name>\[[^\]]*\]|@\w+)
    | (?P<word>[^\W\d]\w*)
    | (?P<number>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE]\d+)?)
    | (?P<compare><=|>=|<>|!=|[<>]|=(?!=))
    | (?P<other>==|\S)
    | \Z)""",
    re.VERBOSE | re.DOTALL,
)

_OTHER = {
    "(": TokenType.LPAREN, ")": TokenType.RPAREN, ",": TokenType.COMMA,
    ".": TokenType.DOT, ";": TokenType.SEMICOLON, "*": TokenType.STAR,
    **dict.fromkeys(("==", "+", "-", "/", "%", "!"), TokenType.OPERATOR),
}  # fmt: skip
_UNCLOSED = {
    "'": "unterminated string literal",
    "[": "unterminated [identifier]",
    "@": "'@' must be followed by a parameter name",
}


class Token:
    """A lexical token with position information for error messages."""

    __slots__ = ("type", "value", "line", "column")

    def __init__(self, type: TokenType, value: str, line: int, column: int):
        self.type = type
        self.value = value
        self.line = line
        self.column = column

    def is_keyword(self, *words: str) -> bool:
        """Return True if this token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in words

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r})"


def tokenize(text: str) -> List[Token]:
    """Scan ``text`` and return its tokens, EOF-terminated.

    Raises :class:`LexError` at the offending token's line and column (at
    the end of the text for a block comment that never closes).
    """
    tokens: List[Token] = []
    line, line_start, counted = 1, 0, 0  # newlines are counted up to ``counted``
    for match in TOKEN.finditer(text):
        kind = match.lastgroup
        start = match.start(kind) if kind else match.end()
        breaks = text.count("\n", counted, start)
        if breaks:
            line += breaks
            line_start = text.rfind("\n", counted, start) + 1
        counted = start
        column = start - line_start + 1
        if kind is None:
            break
        value = match.group(kind)
        if kind == "word":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, line, column))
            else:
                tokens.append(Token(TokenType.IDENT, value, line, column))
        elif kind == "name":
            if value[0] == "@":
                tokens.append(Token(TokenType.PARAMETER, value[1:], line, column))
            else:
                tokens.append(Token(TokenType.IDENT, value[1:-1], line, column))
        elif kind == "number":
            tokens.append(Token(TokenType.NUMBER, value, line, column))
        elif kind == "string":
            tokens.append(Token(TokenType.STRING, value[1:-1].replace("''", "'"), line, column))
        elif kind == "compare":
            tokens.append(Token(TokenType.OPERATOR, "<>" if value == "!=" else value, line, column))
        elif value == "/" and text.startswith("*", match.end()):
            end_line = text.count("\n") + 1
            raise LexError("unterminated block comment", end_line, len(text) - text.rfind("\n"))
        elif value in _OTHER:
            tokens.append(Token(_OTHER[value], value, line, column))
        else:
            message = _UNCLOSED.get(value) or f"unexpected character {value!r}"
            raise LexError(message, line, column)
    tokens.append(Token(TokenType.EOF, "", line, column))
    return tokens
