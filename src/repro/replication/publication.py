"""Publications and articles.

An article is a select-project expression over a published table: a subset
of columns and a row-restriction predicate. Subscribers receive only the
projected images of rows satisfying the predicate — this is what lets
MTCache cache horizontal and vertical subsets of tables, not just complete
tables (the paper's contrast with DBCache).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.schema import Schema
from repro.errors import ReplicationError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import ExpressionCompiler, evaluate
from repro.sql import ast


@dataclass
class Article:
    """One published select-project expression over a source table."""

    name: str
    source_table: str
    columns: Tuple[str, ...]  # projected columns, in article order
    predicate: Optional[ast.Expression] = None

    # Compiled state (populated by bind()).
    _project: Any = field(default=None, repr=False)  # full row -> article row
    _predicate_fn: Any = field(default=None, repr=False)

    def bind(self, source_schema: Schema) -> None:
        """Resolve the article against the source table's schema."""
        positions = [source_schema.resolve(column) for column in self.columns]
        if len(positions) == 1:
            self._project = lambda row, position=positions[0]: (row[position],)
        else:
            self._project = operator.itemgetter(*positions)
        if self.predicate is not None:
            qualified_schema = source_schema.with_qualifier(self.source_table)
            self._predicate_fn = ExpressionCompiler(qualified_schema).compile(self.predicate)
        else:
            self._predicate_fn = None

    def row_matches(self, row: Tuple) -> bool:
        """Does a full source row fall inside the article's restriction?"""
        if self._predicate_fn is None:
            return True
        return evaluate(self._predicate_fn, _BLANK_CONTEXT, row) is True

    def select(self, rows: List[Tuple]) -> List[Tuple]:
        """The projected images of the full source ``rows`` inside the
        restriction: one predicate call for all of them."""
        if self._predicate_fn is not None and rows:
            selection = self._predicate_fn(rows, _BLANK_CONTEXT)
            rows = [row for row, keep in zip(rows, selection) if keep is True]
        return list(map(self.project, rows))

    def project(self, row: Tuple) -> Tuple:
        """Project a full source row to the article's column subset."""
        if self._project is None:
            raise ReplicationError(f"article {self.name!r} is not bound")
        return self._project(row)


_BLANK_CONTEXT = ExecutionContext()


@dataclass
class Publication:
    """A named set of articles on one publisher database."""

    name: str
    database: str
    articles: Dict[str, Article] = field(default_factory=dict)

    def add_article(self, article: Article) -> None:
        if article.name.lower() in self.articles:
            raise ReplicationError(
                f"article {article.name!r} already exists in publication {self.name!r}"
            )
        self.articles[article.name.lower()] = article

    def articles_for_table(self, table_name: str) -> List[Article]:
        return [
            article
            for article in self.articles.values()
            if article.source_table.lower() == table_name.lower()
        ]
