"""Row schemas: ordered, named, typed column lists.

A :class:`Schema` describes the shape of a row stream flowing between
operators as well as the persistent shape of a table. Columns carry an
optional qualifier (the table alias that produced them) so name resolution
can disambiguate ``c.id`` from ``o.id`` after a join.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.types import SqlType
from repro.errors import BindError


@dataclass(frozen=True)
class Column:
    """A single schema column: name, type and optional source qualifier."""

    name: str
    sql_type: SqlType
    qualifier: Optional[str] = None
    nullable: bool = True

    @property
    def qualified_name(self) -> str:
        """Return ``qualifier.name`` when qualified, else just the name."""
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def with_qualifier(self, qualifier: Optional[str]) -> "Column":
        """Return a copy of this column under a new qualifier."""
        return replace(self, qualifier=qualifier)


class Schema:
    """An ordered collection of :class:`Column` with name resolution.

    Lookup is case-insensitive, matching T-SQL identifier semantics.
    """

    def __init__(self, columns: Iterable[Column]):
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._by_name: dict = {}
        self._by_qualified: dict = {}
        for position, column in enumerate(self.columns):
            key = column.name.lower()
            self._by_name.setdefault(key, []).append(position)
            if column.qualifier:
                qkey = (column.qualifier.lower(), key)
                self._by_qualified.setdefault(qkey, []).append(position)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __getitem__(self, index: int) -> Column:
        return self.columns[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.qualified_name} {c.sql_type}" for c in self.columns)
        return f"Schema({cols})"

    @property
    def names(self) -> List[str]:
        """Return the unqualified column names in order."""
        return [column.name for column in self.columns]

    def resolve(self, name: str, qualifier: Optional[str] = None) -> int:
        """Return the position of the named column.

        Raises :class:`BindError` if the name is unknown or ambiguous.
        """
        if qualifier:
            positions = self._by_qualified.get((qualifier.lower(), name.lower()), [])
        else:
            positions = self._by_name.get(name.lower(), [])
        if not positions:
            target = f"{qualifier}.{name}" if qualifier else name
            raise BindError(f"unknown column {target!r}")
        if len(positions) > 1:
            target = f"{qualifier}.{name}" if qualifier else name
            raise BindError(f"ambiguous column {target!r}")
        return positions[0]

    def maybe_resolve(self, name: str, qualifier: Optional[str] = None) -> Optional[int]:
        """Like :meth:`resolve` but returns None when the name is unknown.

        Still raises on ambiguity, which is always an error.
        """
        try:
            return self.resolve(name, qualifier)
        except BindError as exc:
            if "ambiguous" in str(exc):
                raise
            return None

    def with_qualifier(self, qualifier: Optional[str]) -> "Schema":
        """Return a schema whose columns are all re-qualified."""
        return Schema(column.with_qualifier(qualifier) for column in self.columns)

    def concat(self, other: "Schema") -> "Schema":
        """Return the concatenation of this schema and another (join output)."""
        return Schema(tuple(self.columns) + tuple(other.columns))

    def project(self, positions: Sequence[int]) -> "Schema":
        """Return a schema consisting of the columns at ``positions``."""
        return Schema(self.columns[position] for position in positions)

    @property
    def row_width(self) -> int:
        """Estimated average row width in bytes (for transfer costing)."""
        return sum(column.sql_type.width for column in self.columns) or 1
