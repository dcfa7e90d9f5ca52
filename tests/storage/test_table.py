"""Heap table + secondary index tests."""

import datetime

import pytest

from repro.common.schema import Column, Schema
from repro.common.types import (
    BIGINT,
    BOOLEAN,
    CHAR,
    DATE,
    DATETIME,
    FLOAT,
    INT,
    NUMERIC,
    VARCHAR,
    coerce_value,
)
from repro.errors import ConstraintError, ExecutionError
from repro.storage.table import Table


def make_table():
    schema = Schema(
        [
            Column("id", INT, nullable=False),
            Column("name", VARCHAR(20), nullable=False),
            Column("score", FLOAT),
        ]
    )
    return Table("t", schema, primary_key=("id",))


class TestInsert:
    def test_insert_and_get(self):
        table = make_table()
        rid = table.insert((1, "a", 2.5))
        assert table.get(rid) == (1, "a", 2.5)

    def test_pk_duplicate_rejected(self):
        table = make_table()
        table.insert((1, "a", None))
        with pytest.raises(ConstraintError, match="duplicate key"):
            table.insert((1, "b", None))

    def test_pk_violation_rolls_back_index_entries(self):
        table = make_table()
        table.create_index("ix_name", ["name"])
        table.insert((1, "a", None))
        with pytest.raises(ConstraintError):
            table.insert((1, "a", None))
        # The failed insert must leave no trace in any index.
        assert len(list(table.indexes["ix_name"].seek(("a",)))) == 1

    def test_not_null_enforced(self):
        table = make_table()
        with pytest.raises(ConstraintError, match="NOT NULL"):
            table.insert((1, None, None))

    def test_arity_mismatch(self):
        table = make_table()
        with pytest.raises(ExecutionError, match="arity"):
            table.insert((1, "a"))

    def test_coercion_applied(self):
        table = make_table()
        rid = table.insert(("7", "a", "2.5"))
        assert table.get(rid) == (7, "a", 2.5)


class TestInsertMany:
    def test_rows_load_in_order_from_a_generator(self):
        table = make_table()
        table.create_index("ix_name", ["name"])
        count = table.insert_many((i, f"n{i % 3}", None if i % 2 else 0.5) for i in range(1, 7))
        assert count == 6 and table.rows_written == 6
        assert [row[0] for _, row in table.scan()] == [1, 2, 3, 4, 5, 6]
        assert len(table.indexes["ix_name"].seek(("n1",))) == 2

    def test_insert_checks_hold_row_by_row(self):
        table = make_table()
        assert table.insert_many([("7", "a", "2.5")]) == 1
        assert table.get(1) == (7, "a", 2.5)
        for bad, error in [((2, None, None), ConstraintError), ((2, "b"), ExecutionError)]:
            with pytest.raises(error):
                table.insert_many([bad])

    def test_a_duplicate_key_stops_the_load_after_the_rows_before_it(self):
        table = make_table()
        table.create_index("ix_name", ["name"])
        with pytest.raises(ConstraintError, match="duplicate key"):
            table.insert_many([(1, "a", None), (2, "b", None), (1, "c", None), (3, "d", None)])
        assert sorted(row[0] for _, row in table.scan()) == [1, 2]
        assert table.rows_written == 2
        assert table.indexes["ix_name"].seek(("c",)) == []


class TestDeleteUpdate:
    def test_delete_removes_from_indexes(self):
        table = make_table()
        rid = table.insert((1, "a", None))
        table.delete_rid(rid)
        assert table.indexes["pk_t"].seek((1,)) == []
        assert len(table) == 0

    def test_delete_missing_rid(self):
        table = make_table()
        with pytest.raises(ExecutionError):
            table.delete_rid(999)

    def test_update_moves_index_entries(self):
        table = make_table()
        rid = table.insert((1, "a", None))
        table.update_rid(rid, (2, "b", None))
        assert table.indexes["pk_t"].seek((1,)) == []
        assert table.indexes["pk_t"].seek((2,)) == [rid]

    def test_update_conflict_restores_old_state(self):
        table = make_table()
        table.insert((1, "a", None))
        rid2 = table.insert((2, "b", None))
        with pytest.raises(ConstraintError):
            table.update_rid(rid2, (1, "b", None))
        assert table.get(rid2) == (2, "b", None)
        assert table.indexes["pk_t"].seek((2,)) == [rid2]


class TestIndexes:
    def test_backfill_on_create(self):
        table = make_table()
        for i in range(10):
            table.insert((i, f"n{i % 3}", None))
        table.create_index("ix_name", ["name"])
        assert len(list(table.indexes["ix_name"].seek(("n0",)))) == 4

    def test_unique_secondary_index(self):
        table = make_table()
        table.create_index("ux_name", ["name"], unique=True)
        table.insert((1, "a", None))
        with pytest.raises(ConstraintError):
            table.insert((2, "a", None))

    def test_find_index_by_leading_columns(self):
        table = make_table()
        table.create_index("ix_ns", ["name", "score"])
        assert table.find_index(["name"]).name == "ix_ns"
        assert table.find_index(["name", "score"]).name == "ix_ns"
        assert table.find_index(["score"]) is None

    def test_range_scan_ordered(self):
        table = make_table()
        for i in (5, 1, 9, 3, 7):
            table.insert((i, "x", None))
        rids = list(table.indexes["pk_t"].range_scan((3,), (7,)))
        values = [table.rows[rid][0] for rid in rids]
        assert values == [3, 5, 7]

    def test_duplicate_index_name_rejected(self):
        table = make_table()
        with pytest.raises(ConstraintError):
            table.create_index("pk_t", ["name"])

    def test_drop_index(self):
        table = make_table()
        table.create_index("ix_name", ["name"])
        table.drop_index("ix_name")
        assert "ix_name" not in table.indexes


class TestTruncateAndCounters:
    def test_truncate_keeps_definitions(self):
        table = make_table()
        table.create_index("ix_name", ["name"])
        table.insert((1, "a", None))
        table.truncate()
        assert len(table) == 0
        assert "ix_name" in table.indexes
        table.insert((1, "a", None))  # PK free again

    def test_work_counters(self):
        table = make_table()
        table.insert((1, "a", None))
        list(table.scan())
        assert table.rows_written == 1
        assert table.rows_read >= 1
        table.reset_counters()
        assert table.rows_written == 0


# -- a row already in stored form is stored as it is --------------------------


class _Count(int):
    pass


class _Text(str):
    pass


_TYPES = [INT, BIGINT, FLOAT, NUMERIC, VARCHAR(4), VARCHAR(), CHAR(3), DATE, DATETIME, BOOLEAN]
_VALUES = [
    None, True, False, 0, 7, -2, _Count(5), 1.5, 2.0, "12", "1.5", "abc", "abcd", "abcdef",
    _Text("xy"), "2024-01-02", "2024-01-02 03:04:05", datetime.date(2024, 1, 2),
    datetime.datetime(2024, 1, 2, 3, 4, 5), datetime.datetime(2024, 1, 2), [1],
]


def _per_value(table, values):
    """What coercing each value on its own makes of ``values``."""
    if len(values) != len(table.schema):
        raise ExecutionError(
            f"row arity {len(values)} does not match table {table.name!r} "
            f"({len(table.schema)} columns)"
        )
    coerced = []
    for value, column in zip(values, table.schema):
        stored = coerce_value(value, column.sql_type)
        if stored is None and not column.nullable:
            raise ConstraintError(f"column {column.name!r} of {table.name!r} is NOT NULL")
        coerced.append(stored)
    return tuple(coerced)


def _outcome(coerce, table, values):
    """A row's values with their types, or the error it raised."""
    try:
        return [(type(value), value) for value in coerce(table, values)]
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return (type(error), str(error))


@pytest.mark.parametrize("sql_type", _TYPES, ids=str)
@pytest.mark.parametrize("nullable", [True, False])
def test_coerce_row_matches_per_value_coercion(sql_type, nullable):
    table = Table("t", Schema([Column("c", sql_type, nullable=nullable)]))
    for value in _VALUES:
        expected = _outcome(_per_value, table, (value,))
        assert _outcome(Table._coerce_row, table, (value,)) == expected, value
        assert _outcome(Table._coerce_row, table, [value]) == expected, value


def test_coerce_row_matches_per_value_coercion_on_whole_rows():
    columns = [Column(f"c{i}", kind, nullable=i % 2 == 0) for i, kind in enumerate(_TYPES)]
    table = Table("t", Schema(columns))
    stored = (
        3, 4, 1.5, 2.0, "abcd", "long text", "abc",
        datetime.date(2024, 1, 2), datetime.datetime(2024, 1, 2, 3), True,
    )
    assert table._coerce_row(stored) == stored
    rows = [stored, stored[:-1], stored + (1,), ()]
    for position in range(len(stored)):
        for value in _VALUES:
            rows.append(stored[:position] + (value,) + stored[position + 1 :])
    for row in rows:
        assert _outcome(Table._coerce_row, table, row) == _outcome(_per_value, table, row), row


def test_over_long_string_is_cut_to_its_column():
    columns = [Column("id", INT), Column("code", CHAR(2)), Column("v", VARCHAR(3))]
    table = Table("t", Schema(columns))
    rid = table.insert((1, "abc", "abcd"))
    assert table.get(rid) == (1, "ab", "abc")
    rid = table.insert((2, "ab", "abc"))
    assert table.get(rid) == (2, "ab", "abc")
