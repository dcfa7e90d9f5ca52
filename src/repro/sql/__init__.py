"""SQL frontend: lexer, parser, AST and SQL text formatter.

The dialect is a T-SQL-flavoured subset sufficient for the TPC-W workload
and all examples in the MTCache paper: SELECT with joins/grouping/TOP,
DML, DDL (tables, indexes, views, materialized and cached views, stored
procedures), ``@parameter`` markers, ``EXEC``, four-part linked-server
names and the paper's proposed freshness clause. :func:`lift_literals`
is the normal form statement-keyed caches key on (literals lifted to
reserved parameter markers before any parse).
"""

from repro.sql.lexer import Token, TokenType, tokenize
from repro.sql.parser import Parser, parse, parse_expression, parse_statements
from repro.sql.formatter import format_expression, format_statement
from repro.sql.lift import AS_WRITTEN, RESERVED_PREFIX, lift_literals, overlay

__all__ = [
    "Token",
    "TokenType",
    "tokenize",
    "Parser",
    "parse",
    "parse_expression",
    "parse_statements",
    "format_expression",
    "format_statement",
    "AS_WRITTEN",
    "RESERVED_PREFIX",
    "lift_literals",
    "overlay",
]
