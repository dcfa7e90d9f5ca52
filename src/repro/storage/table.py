"""Heap tables with secondary B+-tree indexes.

A :class:`Table` stores rows as tuples keyed by a monotonically increasing
row id. Primary keys are enforced through a unique index. Index maintenance
happens inside insert/update/delete so scans and seeks are always
consistent with the heap.

Tables also keep *work counters* (rows read/written) which the cluster
simulator uses to calibrate CPU service demands for the TPC-W experiments.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.schema import Schema
from repro.common.types import coerce_value
from repro.errors import ConstraintError, ExecutionError
from repro.storage.btree import PREFIX_SENTINEL, BPlusTree, encode_key


class SecondaryIndex:
    """A (possibly unique) B+-tree index over a subset of table columns."""

    def __init__(self, name: str, table: "Table", column_names: Sequence[str], unique: bool = False):
        self.name = name
        self.table = table
        self.column_names = tuple(column_names)
        self.positions = tuple(table.schema.resolve(name) for name in column_names)
        self.unique = unique
        self.tree = BPlusTree()

    def key_for(self, row: Tuple) -> Tuple:
        """Extract and encode this index's key from a heap row."""
        return encode_key(tuple(row[position] for position in self.positions))

    def insert(self, rid: int, row: Tuple) -> None:
        key = self.key_for(row)
        if self.unique:
            existing = self.tree.get(key)
            if existing:
                values = tuple(row[position] for position in self.positions)
                raise ConstraintError(
                    f"duplicate key {values!r} in unique index {self.name!r}"
                )
        self.tree.insert(key, rid)

    def delete(self, rid: int, row: Tuple) -> None:
        self.tree.delete(self.key_for(row), rid)

    def seek(self, values: Sequence[Any]) -> List[int]:
        """Return rids whose key equals the given values exactly."""
        return self.tree.get(encode_key(tuple(values)))

    def seek_prefix(self, values: Sequence[Any]) -> Iterator[int]:
        """Yield rids whose key starts with the given prefix values."""
        for _, rid in self.tree.scan_prefix(encode_key(tuple(values))):
            yield rid

    def range_scan(
        self,
        low: Optional[Sequence[Any]] = None,
        high: Optional[Sequence[Any]] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[int]:
        """Yield rids with keys inside the given bound, in key order.

        Bounds shorter than the index key act as *prefix* bounds: a short
        low bound naturally sorts before every key sharing the prefix, and
        a short high bound is padded with a sentinel so it sorts after
        them (otherwise ``(1,) < (1, x)`` would exclude the whole prefix).
        """
        low_key = encode_key(tuple(low)) if low is not None else None
        high_key = encode_key(tuple(high)) if high is not None else None
        if (
            high_key is not None
            and high_inclusive
            and len(high_key) < len(self.column_names)
        ):
            padding = len(self.column_names) - len(high_key)
            high_key = high_key + (PREFIX_SENTINEL,) * padding
        for _, rid in self.tree.scan(low_key, high_key, low_inclusive, high_inclusive):
            yield rid

    def __repr__(self) -> str:
        unique = "unique " if self.unique else ""
        return f"<{unique}index {self.name} on ({', '.join(self.column_names)})>"


class Table:
    """An in-memory heap table with schema, PK enforcement and indexes."""

    def __init__(self, name: str, schema: Schema, primary_key: Sequence[str] = ()):
        self.name = name
        self.schema = schema
        self.primary_key = tuple(primary_key)
        self.rows: Dict[int, Tuple] = {}
        self.indexes: Dict[str, SecondaryIndex] = {}
        self._rid_counter = itertools.count(1)
        self.rows_read = 0
        self.rows_written = 0
        if self.primary_key:
            self.create_index(f"pk_{name}", self.primary_key, unique=True)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def create_index(self, name: str, column_names: Sequence[str], unique: bool = False) -> SecondaryIndex:
        """Create an index and backfill it from existing rows."""
        if name in self.indexes:
            raise ConstraintError(f"index {name!r} already exists on {self.name!r}")
        index = SecondaryIndex(name, self, column_names, unique)
        for rid, row in self.rows.items():
            index.insert(rid, row)
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise ConstraintError(f"no index {name!r} on {self.name!r}")
        del self.indexes[name]

    def find_index(self, column_names: Sequence[str]) -> Optional[SecondaryIndex]:
        """Return an index whose leading columns match ``column_names``."""
        wanted = tuple(name.lower() for name in column_names)
        for index in self.indexes.values():
            leading = tuple(name.lower() for name in index.column_names[: len(wanted)])
            if leading == wanted:
                return index
        return None

    def _coerce_row(self, values: Sequence[Any]) -> Tuple:
        if len(values) != len(self.schema):
            raise ExecutionError(
                f"row arity {len(values)} does not match table {self.name!r} "
                f"({len(self.schema)} columns)"
            )
        coerced = []
        for value, column in zip(values, self.schema):
            coerced_value = coerce_value(value, column.sql_type)
            if coerced_value is None and not column.nullable:
                raise ConstraintError(
                    f"column {column.name!r} of {self.name!r} is NOT NULL"
                )
            coerced.append(coerced_value)
        return tuple(coerced)

    def insert(self, values: Sequence[Any]) -> int:
        """Insert one row; returns its rid. Enforces PK/unique constraints."""
        row = self._coerce_row(values)
        rid = next(self._rid_counter)
        inserted: List[SecondaryIndex] = []
        try:
            for index in self.indexes.values():
                index.insert(rid, row)
                inserted.append(index)
        except ConstraintError:
            for index in inserted:
                index.delete(rid, row)
            raise
        self.rows[rid] = row
        self.rows_written += 1
        return rid

    def insert_with_rid(self, rid: int, values: Sequence[Any]) -> int:
        """Re-insert a row under a specific rid (transaction undo path)."""
        if rid in self.rows:
            raise ExecutionError(f"rid {rid} already present in {self.name!r}")
        row = self._coerce_row(values)
        inserted: List[SecondaryIndex] = []
        try:
            for index in self.indexes.values():
                index.insert(rid, row)
                inserted.append(index)
        except ConstraintError:
            for index in inserted:
                index.delete(rid, row)
            raise
        self.rows[rid] = row
        self.rows_written += 1
        return rid

    def delete_rid(self, rid: int) -> Tuple:
        """Delete the row with the given rid, returning the old row."""
        row = self.rows.pop(rid, None)
        if row is None:
            raise ExecutionError(f"no row {rid} in table {self.name!r}")
        for index in self.indexes.values():
            index.delete(rid, row)
        self.rows_written += 1
        return row

    def update_rid(self, rid: int, values: Sequence[Any]) -> Tuple[Tuple, Tuple]:
        """Replace the row at ``rid``; returns (old_row, new_row)."""
        old_row = self.rows.get(rid)
        if old_row is None:
            raise ExecutionError(f"no row {rid} in table {self.name!r}")
        new_row = self._coerce_row(values)
        for index in self.indexes.values():
            index.delete(rid, old_row)
        try:
            touched: List[SecondaryIndex] = []
            for index in self.indexes.values():
                index.insert(rid, new_row)
                touched.append(index)
        except ConstraintError:
            for index in touched:
                index.delete(rid, new_row)
            for index in self.indexes.values():
                index.insert(rid, old_row)
            raise
        self.rows[rid] = new_row
        self.rows_written += 1
        return old_row, new_row

    def scan(self) -> Iterator[Tuple[int, Tuple]]:
        """Yield (rid, row) for every row, in insertion order."""
        for rid, row in self.rows.items():
            self.rows_read += 1
            yield rid, row

    def scan_batches(self, size: int) -> Iterator[List[Tuple]]:
        """Yield rows in insertion-order chunks of at most ``size``.

        The SeqScan source: one slice per chunk instead of one
        generator resumption per row. ``rows_read`` advances by whole
        chunks so the counter matches :meth:`scan` exactly.
        """
        if size <= 0:
            raise ExecutionError(f"scan batch size must be positive, got {size}")
        values = list(self.rows.values())
        for start in range(0, len(values), size):
            chunk = values[start : start + size]
            self.rows_read += len(chunk)
            yield chunk

    def get(self, rid: int) -> Tuple:
        """Fetch one row by rid."""
        row = self.rows.get(rid)
        if row is None:
            raise ExecutionError(f"no row {rid} in table {self.name!r}")
        self.rows_read += 1
        return row

    def truncate(self) -> None:
        """Remove all rows and reset indexes (keeps definitions)."""
        self.rows.clear()
        for index in self.indexes.values():
            index.tree.clear()

    def reset_counters(self) -> None:
        """Reset the work counters used for simulator calibration."""
        self.rows_read = 0
        self.rows_written = 0

    def __repr__(self) -> str:
        return f"<Table {self.name} rows={len(self.rows)} indexes={list(self.indexes)}>"
