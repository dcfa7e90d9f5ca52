"""Table and column statistics with equi-depth histograms.

MTCache shadows the *statistics* of backend tables onto the cache server
even though the shadow tables hold no data — that is what makes fully
cost-based optimization possible on the mid-tier. Statistics objects here
are therefore designed to be (a) buildable from real data (``ANALYZE``)
and (b) detachable/serializable so a shadow database can adopt a backend
table's statistics verbatim.

Selectivity estimation follows the classic System-R rules with histogram
refinement for range predicates.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple


def _sort_key(value: Any) -> Tuple:
    """Order values of mixed kinds safely (NULLs never reach here)."""
    if isinstance(value, bool):
        return (0, value)
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    return (3, type(value).__name__, value)


def _ordered(values: Sequence[Any]) -> Tuple[List[Any], int]:
    """Non-empty ``values`` stably sorted by :func:`_sort_key`, and the
    position of the first maximal one (the value ``max`` keeps).

    Values of one type, or ints with floats, order natively exactly as
    their sort keys do, so they skip the key function; bools do not (the
    key puts ``True`` below ``1``)."""
    kinds = set(map(type, values))
    if kinds <= {int, float} or (len(kinds) == 1 and bool not in kinds):
        ordered = sorted(values)
        return ordered, bisect.bisect_left(ordered, ordered[-1])
    ordered = sorted(values, key=_sort_key)
    top = len(ordered) - 1
    greatest = _sort_key(ordered[top])
    while top and _sort_key(ordered[top - 1]) == greatest:
        top -= 1
    return ordered, top


@dataclass
class Histogram:
    """An equi-depth histogram: ``bounds`` are bucket upper edges."""

    bounds: List[Any] = field(default_factory=list)
    bucket_count: int = 0

    @classmethod
    def build(cls, values: Sequence[Any], buckets: int = 20) -> "Histogram":
        """Build from non-null values; each bucket holds ~equal row counts."""
        if not values:
            return cls([], 0)
        return cls.from_ordered(_ordered(values)[0], buckets)

    @classmethod
    def from_ordered(cls, ordered: Sequence[Any], buckets: int = 20) -> "Histogram":
        """Build from non-null values already in :func:`_sort_key` order."""
        buckets = max(1, min(buckets, len(ordered)))
        bounds = []
        for index in range(1, buckets + 1):
            position = min(len(ordered) - 1, (index * len(ordered)) // buckets - 1)
            bounds.append(ordered[max(0, position)])
        return cls(bounds, buckets)

    def fraction_below(self, value: Any, inclusive: bool) -> float:
        """Estimate the fraction of rows with column value <= (or <) value."""
        if not self.bounds:
            return 0.5
        key = _sort_key(value)
        if inclusive:
            index = bisect.bisect_right(self._keys, key)
        else:
            index = bisect.bisect_left(self._keys, key)
        return min(1.0, index / self.bucket_count)

    @cached_property
    def _keys(self) -> List[Tuple]:
        """The bounds' sort keys, made on the first estimate (a cached
        attribute, not a field: equality and copies see bounds only)."""
        return [_sort_key(bound) for bound in self.bounds]


@dataclass
class ColumnStatistics:
    """Per-column statistics: cardinality, bounds, nulls, histogram."""

    column_name: str
    distinct_count: int = 1
    null_count: int = 0
    row_count: int = 0
    min_value: Any = None
    max_value: Any = None
    histogram: Histogram = field(default_factory=Histogram)

    @classmethod
    def build(cls, column_name: str, values: Sequence[Any], buckets: int = 20) -> "ColumnStatistics":
        """Compute statistics from a column of values (None = NULL)."""
        non_null = [value for value in values if value is not None]
        stats = cls(
            column_name=column_name,
            distinct_count=max(1, len(set(non_null))) if non_null else 1,
            null_count=len(values) - len(non_null),
            row_count=len(values),
        )
        if non_null:
            ordered, top = _ordered(non_null)
            stats.min_value = ordered[0]
            stats.max_value = ordered[top]
            stats.histogram = Histogram.from_ordered(ordered, buckets)
        return stats

    @property
    def null_fraction(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count

    def equality_selectivity(self) -> float:
        """Selectivity of ``col = literal``: 1/NDV scaled by non-null rows."""
        non_null_fraction = 1.0 - self.null_fraction
        return non_null_fraction / max(1, self.distinct_count)

    def range_selectivity(self, op: str, value: Any) -> float:
        """Selectivity of ``col <op> literal`` using the histogram.

        Falls back to linear interpolation over [min, max] for numeric
        columns without a histogram, then to the 1/3 System-R default.
        """
        non_null_fraction = 1.0 - self.null_fraction
        if self.histogram.bounds:
            if op in ("<", "<="):
                fraction = self.histogram.fraction_below(value, inclusive=(op == "<="))
            elif op in (">", ">="):
                fraction = 1.0 - self.histogram.fraction_below(value, inclusive=(op == ">"))
            else:
                fraction = 1.0 / 3.0
            return max(0.0, min(1.0, fraction)) * non_null_fraction
        if (
            isinstance(value, (int, float))
            and isinstance(self.min_value, (int, float))
            and isinstance(self.max_value, (int, float))
            and self.max_value > self.min_value
        ):
            position = (value - self.min_value) / (self.max_value - self.min_value)
            position = max(0.0, min(1.0, position))
            if op in (">", ">="):
                position = 1.0 - position
            return position * non_null_fraction
        return (1.0 / 3.0) * non_null_fraction

    def copy(self) -> "ColumnStatistics":
        """Return a detached copy (for shadow databases)."""
        return ColumnStatistics(
            column_name=self.column_name,
            distinct_count=self.distinct_count,
            null_count=self.null_count,
            row_count=self.row_count,
            min_value=self.min_value,
            max_value=self.max_value,
            histogram=Histogram(list(self.histogram.bounds), self.histogram.bucket_count),
        )


@dataclass
class TableStatistics:
    """Statistics for a table (or materialized view treated as a table)."""

    table_name: str
    row_count: int = 0
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)

    @classmethod
    def build(cls, table_name: str, column_names: Sequence[str], rows: Sequence[Tuple]) -> "TableStatistics":
        """Compute statistics over materialized rows (the ANALYZE path)."""
        stats = cls(table_name=table_name, row_count=len(rows))
        for position, column_name in enumerate(column_names):
            values = list(map(itemgetter(position), rows))
            stats.columns[column_name.lower()] = ColumnStatistics.build(column_name, values)
        return stats

    def column(self, name: str) -> Optional[ColumnStatistics]:
        """Look up column statistics case-insensitively."""
        return self.columns.get(name.lower())

    def copy(self, table_name: Optional[str] = None) -> "TableStatistics":
        """Detached copy, optionally renamed (shadow database adoption)."""
        return TableStatistics(
            table_name=table_name or self.table_name,
            row_count=self.row_count,
            columns={key: value.copy() for key, value in self.columns.items()},
        )
