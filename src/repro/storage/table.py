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
import operator
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.schema import Schema
from repro.common.types import (
    coerce_value,
    incomparable,
    is_string,
    probe_forms,
    stored_type,
    value_kind,
)
from repro.errors import ConstraintError, ExecutionError
from repro.storage.btree import PREFIX_SENTINEL, BPlusTree, encode_key, encode_part


class SecondaryIndex:
    """A (possibly unique) index over a subset of table columns.

    The B+-tree serves prefix and range scans in key order. Beside it the
    index keeps one dict from each stored key to the tree's own payload
    list for that key (a one-column index keys it by the bare value), so
    an exact-match probe is a hash lookup: no key encoding, no descent.
    Every probe is first brought to its columns' stored form
    (:meth:`_stored`) under the comparison rule, so an index answers what
    a scan of the same rows answers.
    """

    def __init__(self, name: str, table: "Table", column_names: Sequence[str], unique: bool = False):
        self.name = name
        self.table = table
        self.column_names = tuple(column_names)
        self.positions = tuple(table.schema.resolve(name) for name in column_names)
        self._kinds = tuple(table.schema[position].sql_type.kind for position in self.positions)
        self._forms = tuple(probe_forms(kind) for kind in self._kinds)
        self._single = len(self.positions) == 1
        #: Probe types a one-column index looks up as they come (none for a
        #: composite index, whose map key is a tuple).
        self._plain = frozenset(
            held for held, convert in self._forms[0].items()
            if convert is None and held is not type(None) and self._single
        )
        #: The exact-map key of a heap row: its bare value, or a tuple.
        self._exact_key = operator.itemgetter(*self.positions)
        self.unique = unique
        self.tree = BPlusTree()
        self._exact: Dict[Any, List[int]] = {}

    def _stored(self, values: Sequence[Any]) -> Tuple[List[Any], bool]:
        """The probe ``values`` in their columns' stored form, and whether
        every part is exact. Stops after a part no stored value can equal
        (see :data:`~repro.common.types.Convert`). Refuses a part the comparison rule refuses
        against its column, with the comparison's own error: a seek
        compares nothing, so it would otherwise just find no row where a
        scan raises."""
        parts: List[Any] = []
        for value, forms, kind in zip(values, self._forms, self._kinds):
            try:
                convert = forms[type(value)]
            except KeyError:
                raise incomparable(value_kind(value), kind) from None
            if convert is None:
                parts.append(value)
                continue
            stored, exact = convert(value)
            parts.append(stored)
            if not exact:
                return parts, False
        return parts, True

    def key_for(self, row: Tuple) -> Tuple:
        """Extract and encode this index's tree key from a heap row."""
        if self._single:
            return (encode_part(row[self.positions[0]]),)
        return tuple([encode_part(row[position]) for position in self.positions])

    def insert(self, rid: int, row: Tuple) -> None:
        exact = self._exact_key(row)
        if self.unique and exact in self._exact:
            values = tuple(row[position] for position in self.positions)
            raise ConstraintError(f"duplicate key {values!r} in unique index {self.name!r}")
        self._exact[exact] = self.tree.insert(self.key_for(row), rid)

    def delete(self, rid: int, row: Tuple) -> None:
        self.tree.delete(self.key_for(row), rid)
        exact = self._exact_key(row)
        if not self._exact.get(exact, True):
            del self._exact[exact]  # the tree dropped the emptied list

    def clear(self) -> None:
        """Remove every entry."""
        self.tree.clear()
        self._exact.clear()

    def seek(self, values: Sequence[Any]) -> List[int]:
        """Rids whose key equals ``values`` — or, for fewer values than
        key columns, starts with them — in key order. A NULL part matches
        stored NULLs: this is a stored-key lookup, and SQL's ``= NULL`` is
        left to the predicate above it."""
        parts, exact = self._stored(values)
        if not exact:
            return []
        if len(parts) < len(self.positions):
            return [rid for _, rid in self.tree.scan_prefix(encode_key(parts))]
        return list(self._exact.get(parts[0] if self._single else tuple(parts), ()))

    def seek_many(self, keys: Sequence[Tuple]) -> List[Sequence[int]]:
        """The rids of each full-key probe in ``keys``, one join chunk at a
        time. A probe with a NULL part matches nothing (NULL never
        equi-joins). The lists are the index's own: read them before the
        table next changes."""
        found = self._exact.get
        plain = self._plain
        matches: List[Sequence[int]] = []
        for key in keys:
            if type(key[0]) in plain:
                matches.append(found(key[0], ()))
            elif None in key:
                matches.append(())
            else:
                parts, exact = self._stored(key)
                exact_key = parts[0] if self._single else tuple(parts)
                matches.append(found(exact_key, ()) if exact else ())
        return matches

    def _bound(self, values: Optional[Sequence[Any]], inclusive: bool, upper: bool):
        """A range bound as an encoded tree key and its inclusiveness."""
        if values is None:
            return None, inclusive
        parts, exact = self._stored(values)
        if exact:
            return encode_key(parts), inclusive
        # The last part lies strictly above ``parts[-1]`` and below the next
        # stored value, so every key sharing ``parts`` is on the lower side.
        return encode_key(parts) + (PREFIX_SENTINEL,), upper

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
        The bounds are normalised (and checked) before the first rid.
        """
        low_key, low_inclusive = self._bound(low, low_inclusive, upper=False)
        high_key, high_inclusive = self._bound(high, high_inclusive, upper=True)
        if (
            high_key is not None
            and high_inclusive
            and len(high_key) < len(self.column_names)
        ):
            padding = len(self.column_names) - len(high_key)
            high_key = high_key + (PREFIX_SENTINEL,) * padding
        return (
            rid
            for _, rid in self.tree.scan(low_key, high_key, low_inclusive, high_inclusive)
        )

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
        #: Per column, the type its values are stored as, the types a
        #: stored value may have (that one, and NULL where the column allows
        #: it), and the declared length of each bounded string column: a row
        #: that matches needs no coercion (see :meth:`_coerce_row`).
        self._stored_types = tuple(stored_type(column.sql_type.kind) for column in schema)
        self._held_types = tuple(
            frozenset({held} | ({type(None)} if column.nullable else set()))
            for held, column in zip(self._stored_types, schema)
        )
        self._bounded = tuple(
            (position, column.sql_type.length)
            for position, column in enumerate(schema)
            if is_string(column.sql_type) and column.sql_type.length is not None
        )
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
        """``values`` as a stored row: checked against the schema, each
        value coerced to its column's type. A row whose every value is
        already of its column's stored type or an allowed NULL, with no
        string over its length, is stored as it is, as coercion would
        leave it."""
        types = tuple(map(type, values))
        if types == self._stored_types or (
            len(types) == len(self._held_types)
            and all(map(operator.contains, self._held_types, types))
        ):
            for position, length in self._bounded:
                value = values[position]
                if value is not None and len(value) > length:
                    break
            else:
                return tuple(values)
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

    def _store(self, rid: int, row: Tuple) -> None:
        """Index and keep a stored row under ``rid``: in every index or,
        on a unique-key conflict, in none."""
        indexes = self.indexes.values()
        done = 0
        try:
            for index in indexes:
                index.insert(rid, row)
                done += 1
        except ConstraintError:
            for index in itertools.islice(indexes, done):
                index.delete(rid, row)
            raise
        self.rows[rid] = row

    def insert(self, values: Sequence[Any]) -> int:
        """Insert one row; returns its rid. Enforces PK/unique constraints."""
        row = self._coerce_row(values)
        rid = next(self._rid_counter)
        self._store(rid, row)
        self.rows_written += 1
        return rid

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert ``rows`` in order with :meth:`insert`'s checks (arity,
        NOT NULL, coercion, unique keys), one row at a time as the iterable
        yields it; returns how many. A failing row raises and leaves the
        rows before it inserted. The bulk-load and snapshot path."""
        coerce, store, next_rid = self._coerce_row, self._store, self._rid_counter.__next__
        count = 0
        try:
            for values in rows:
                store(next_rid(), coerce(values))
                count += 1
        finally:
            self.rows_written += count
        return count

    def insert_with_rid(self, rid: int, values: Sequence[Any]) -> int:
        """Re-insert a row under a specific rid (transaction undo path)."""
        if rid in self.rows:
            raise ExecutionError(f"rid {rid} already present in {self.name!r}")
        self._store(rid, self._coerce_row(values))
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

    def get_many(self, rids: Sequence[int]) -> List[Tuple]:
        """Fetch rows by rid, in order; counts like :meth:`get` per row."""
        rows = self.rows
        try:
            fetched = [rows[rid] for rid in rids]
        except KeyError as missing:
            raise ExecutionError(f"no row {missing.args[0]} in table {self.name!r}") from None
        self.rows_read += len(fetched)
        return fetched

    def truncate(self) -> None:
        """Remove all rows and reset indexes (keeps definitions)."""
        self.rows.clear()
        for index in self.indexes.values():
            index.clear()

    def reset_counters(self) -> None:
        """Reset the work counters used for simulator calibration."""
        self.rows_read = 0
        self.rows_written = 0

    def __repr__(self) -> str:
        return f"<Table {self.name} rows={len(self.rows)} indexes={list(self.indexes)}>"
