"""Physical operator tests (standalone, without the optimizer)."""

from itertools import chain

import pytest

from repro.common.schema import Column, Schema
from repro.common.types import FLOAT, INT, VARCHAR
from repro.engine.database import Database
from repro.catalog.objects import TableDef
from repro.exec.context import ExecutionContext
from repro.exec.expressions import ExpressionCompiler
from repro.exec.operators import (
    AggregateOp,
    AggregateSpec,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    IndexExtremeOp,
    IndexLookupJoinOp,
    IndexSeekOp,
    NestedLoopJoinOp,
    ProjectOp,
    SeqScanOp,
    SortOp,
    TopOp,
    UnionAllOp,
    ValuesOp,
)
from repro.sql import parse_expression


def make_db():
    database = Database("test")
    schema = Schema(
        [
            Column("id", INT, nullable=False),
            Column("grp", VARCHAR(10)),
            Column("val", FLOAT),
        ]
    )
    database.create_storage(TableDef("t", schema, primary_key=("id",)))
    table = database.storage_table("t")
    for i in range(1, 11):
        table.insert((i, "even" if i % 2 == 0 else "odd", float(i)))
    return database


def rows_of(op, database, params=None):
    ctx = ExecutionContext(database=database, params=params)
    return list(chain.from_iterable(op.execute_batches(ctx)))


def scan_schema():
    return Schema(
        [
            Column("id", INT, qualifier="t"),
            Column("grp", VARCHAR(10), qualifier="t"),
            Column("val", FLOAT, qualifier="t"),
        ]
    )


class TestScansAndFilters:
    def test_seq_scan(self):
        database = make_db()
        op = SeqScanOp(scan_schema(), "t")
        assert len(rows_of(op, database)) == 10

    def test_filter(self):
        database = make_db()
        schema = scan_schema()
        predicate = ExpressionCompiler(schema).compile(parse_expression("grp = 'even'"))
        op = FilterOp(SeqScanOp(schema, "t"), predicate)
        assert len(rows_of(op, database)) == 5

    def test_startup_predicate_false_skips_input(self):
        database = make_db()
        schema = scan_schema()
        blank = ExpressionCompiler(Schema(()))
        guard = blank.compile(parse_expression("@x <= 5"))
        op = FilterOp(SeqScanOp(schema, "t"), startup_predicate=guard)
        assert rows_of(op, database, params={"x": 10}) == []
        assert len(rows_of(op, database, params={"x": 3})) == 10

    def test_startup_predicate_unknown_is_false(self):
        database = make_db()
        schema = scan_schema()
        blank = ExpressionCompiler(Schema(()))
        guard = blank.compile(parse_expression("@missing <= 5"))
        op = FilterOp(SeqScanOp(schema, "t"), startup_predicate=guard)
        assert rows_of(op, database) == []

    def test_index_seek(self):
        database = make_db()
        schema = scan_schema()
        blank = ExpressionCompiler(Schema(()))
        op = IndexSeekOp(schema, "t", "pk_t", [blank.compile(parse_expression("7"))])
        result = rows_of(op, database)
        assert result == [(7, "odd", 7.0)]

    def test_index_extreme(self):
        database = make_db()
        schema = Schema([Column("m", INT)])
        op_max = IndexExtremeOp(schema, "t", "pk_t", "MAX")
        op_min = IndexExtremeOp(schema, "t", "pk_t", "MIN")
        assert rows_of(op_max, database) == [(10,)]
        assert rows_of(op_min, database) == [(1,)]

    def test_index_extreme_empty_table(self):
        database = make_db()
        database.storage_table("t").truncate()
        schema = Schema([Column("m", INT)])
        op = IndexExtremeOp(schema, "t", "pk_t", "MAX")
        assert rows_of(op, database) == [(None,)]


class TestJoins:
    def left_input(self):
        schema = Schema([Column("k", INT, qualifier="l")])
        blank = ExpressionCompiler(Schema(()))
        makers = [[blank.compile(parse_expression(str(v)))] for v in (2, 4, 99)]
        return ValuesOp(schema, makers)

    def test_hash_join_inner(self):
        database = make_db()
        left = self.left_input()
        right = SeqScanOp(scan_schema(), "t")
        left_key = ExpressionCompiler(left.schema).compile(parse_expression("k"))
        right_key = ExpressionCompiler(right.schema).compile(parse_expression("id"))
        op = HashJoinOp(left, right, [left_key], [right_key])
        result = rows_of(op, database)
        assert sorted(row[0] for row in result) == [2, 4]

    def test_hash_join_left_outer(self):
        database = make_db()
        left = self.left_input()
        right = SeqScanOp(scan_schema(), "t")
        left_key = ExpressionCompiler(left.schema).compile(parse_expression("k"))
        right_key = ExpressionCompiler(right.schema).compile(parse_expression("id"))
        op = HashJoinOp(left, right, [left_key], [right_key], kind="LEFT")
        result = rows_of(op, database)
        assert len(result) == 3
        unmatched = [row for row in result if row[0] == 99][0]
        assert unmatched[1:] == (None, None, None)

    def test_nested_loop_cross(self):
        database = make_db()
        left = self.left_input()
        right = SeqScanOp(scan_schema(), "t")
        op = NestedLoopJoinOp(left, right)
        assert len(rows_of(op, database)) == 30

    def test_index_lookup_join(self):
        database = make_db()
        left = self.left_input()
        storage_schema = scan_schema()
        key = ExpressionCompiler(left.schema).compile(parse_expression("k"))
        op = IndexLookupJoinOp(
            left,
            storage_schema,
            "t",
            "pk_t",
            [key],
            right_positions=[0, 1, 2],
        )
        result = rows_of(op, database)
        assert sorted(row[0] for row in result) == [2, 4]

    def test_index_lookup_join_left_outer(self):
        database = make_db()
        left = self.left_input()
        key = ExpressionCompiler(left.schema).compile(parse_expression("k"))
        op = IndexLookupJoinOp(
            left, scan_schema(), "t", "pk_t", [key], [0, 1, 2], kind="LEFT"
        )
        result = rows_of(op, database)
        assert len(result) == 3

    def test_null_keys_never_join(self):
        database = make_db()
        schema = Schema([Column("k", INT, qualifier="l")])
        blank = ExpressionCompiler(Schema(()))
        left = ValuesOp(schema, [[blank.compile(parse_expression("NULL"))]])
        right = SeqScanOp(scan_schema(), "t")
        left_key = ExpressionCompiler(left.schema).compile(parse_expression("k"))
        right_key = ExpressionCompiler(right.schema).compile(parse_expression("id"))
        op = HashJoinOp(left, right, [left_key], [right_key])
        assert rows_of(op, database) == []


class TestAggregation:
    def test_group_by(self):
        database = make_db()
        schema = scan_schema()
        compiler = ExpressionCompiler(schema)
        group = compiler.compile(parse_expression("grp"))
        out_schema = Schema([Column("grp", VARCHAR(10)), Column("n", INT), Column("s", FLOAT)])
        op = AggregateOp(
            SeqScanOp(schema, "t"),
            out_schema,
            [group],
            [
                AggregateSpec("COUNT", None),
                AggregateSpec("SUM", compiler.compile(parse_expression("val"))),
            ],
        )
        result = {row[0]: row[1:] for row in rows_of(op, database)}
        assert result["even"] == (5, 30.0)
        assert result["odd"] == (5, 25.0)

    def test_aggregates_ignore_nulls(self):
        database = make_db()
        database.storage_table("t").insert((11, "odd", None))
        schema = scan_schema()
        compiler = ExpressionCompiler(schema)
        val = compiler.compile(parse_expression("val"))
        out = Schema([Column("n", INT), Column("c2", INT), Column("a", FLOAT)])
        op = AggregateOp(
            SeqScanOp(schema, "t"),
            out,
            [],
            [
                AggregateSpec("COUNT", None),
                AggregateSpec("COUNT", val),
                AggregateSpec("AVG", val),
            ],
        )
        (row,) = rows_of(op, database)
        assert row[0] == 11  # COUNT(*) counts NULL rows
        assert row[1] == 10  # COUNT(val) does not
        assert row[2] == pytest.approx(5.5)

    def test_empty_input_no_groups_yields_one_row(self):
        database = make_db()
        database.storage_table("t").truncate()
        schema = scan_schema()
        compiler = ExpressionCompiler(schema)
        out = Schema([Column("n", INT), Column("s", FLOAT)])
        op = AggregateOp(
            SeqScanOp(schema, "t"),
            out,
            [],
            [AggregateSpec("COUNT", None), AggregateSpec("SUM", compiler.compile(parse_expression("val")))],
        )
        assert rows_of(op, database) == [(0, None)]

    def test_empty_input_with_groups_yields_nothing(self):
        database = make_db()
        database.storage_table("t").truncate()
        schema = scan_schema()
        compiler = ExpressionCompiler(schema)
        out = Schema([Column("grp", VARCHAR(10)), Column("n", INT)])
        op = AggregateOp(
            SeqScanOp(schema, "t"),
            out,
            [compiler.compile(parse_expression("grp"))],
            [AggregateSpec("COUNT", None)],
        )
        assert rows_of(op, database) == []

    def test_min_max_distinct(self):
        database = make_db()
        schema = scan_schema()
        compiler = ExpressionCompiler(schema)
        grp = compiler.compile(parse_expression("grp"))
        out = Schema([Column("mn", FLOAT), Column("mx", FLOAT), Column("d", INT)])
        op = AggregateOp(
            SeqScanOp(schema, "t"),
            out,
            [],
            [
                AggregateSpec("MIN", compiler.compile(parse_expression("val"))),
                AggregateSpec("MAX", compiler.compile(parse_expression("val"))),
                AggregateSpec("COUNT", grp, distinct=True),
            ],
        )
        assert rows_of(op, database) == [(1.0, 10.0, 2)]


class TestSortTopDistinctUnion:
    def test_sort_multi_key(self):
        database = make_db()
        schema = scan_schema()
        compiler = ExpressionCompiler(schema)
        op = SortOp(
            SeqScanOp(schema, "t"),
            [
                (compiler.compile(parse_expression("grp")), False),
                (compiler.compile(parse_expression("val")), True),
            ],
        )
        result = rows_of(op, database)
        assert result[0][1] == "even" and result[0][2] == 10.0
        assert result[-1][1] == "odd" and result[-1][2] == 1.0

    def test_sort_nulls_first_ascending(self):
        database = make_db()
        database.storage_table("t").insert((11, "odd", None))
        schema = scan_schema()
        compiler = ExpressionCompiler(schema)
        op = SortOp(SeqScanOp(schema, "t"), [(compiler.compile(parse_expression("val")), False)])
        result = rows_of(op, database)
        assert result[0][2] is None

    def test_top(self):
        database = make_db()
        schema = scan_schema()
        blank = ExpressionCompiler(Schema(()))
        op = TopOp(SeqScanOp(schema, "t"), blank.compile(parse_expression("3")))
        assert len(rows_of(op, database)) == 3

    def test_top_parameter(self):
        database = make_db()
        schema = scan_schema()
        blank = ExpressionCompiler(Schema(()))
        op = TopOp(SeqScanOp(schema, "t"), blank.compile(parse_expression("@n")))
        assert len(rows_of(op, database, params={"n": 4})) == 4

    def test_top_zero(self):
        database = make_db()
        schema = scan_schema()
        blank = ExpressionCompiler(Schema(()))
        op = TopOp(SeqScanOp(schema, "t"), blank.compile(parse_expression("0")))
        assert rows_of(op, database) == []

    def test_distinct(self):
        database = make_db()
        schema = scan_schema()
        compiler = ExpressionCompiler(schema)
        project = ProjectOp(
            SeqScanOp(schema, "t"),
            Schema([Column("grp", VARCHAR(10))]),
            [compiler.compile(parse_expression("grp"))],
        )
        op = DistinctOp(project)
        assert sorted(rows_of(op, database)) == [("even",), ("odd",)]

    def test_union_all_concatenates(self):
        database = make_db()
        schema = scan_schema()
        op = UnionAllOp([SeqScanOp(schema, "t"), SeqScanOp(schema, "t")])
        assert len(rows_of(op, database)) == 20

    def test_plan_reexecutable(self):
        database = make_db()
        schema = scan_schema()
        op = SeqScanOp(schema, "t")
        assert len(rows_of(op, database)) == 10
        assert len(rows_of(op, database)) == 10

    def test_explain_renders_tree(self):
        schema = scan_schema()
        op = TopOp(SeqScanOp(schema, "t"), ExpressionCompiler(Schema(())).compile(parse_expression("3")))
        text = op.explain()
        assert "Top" in text and "SeqScan(t)" in text
