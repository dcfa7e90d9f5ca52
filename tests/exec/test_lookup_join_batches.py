"""The index lookup join, a left chunk at a time, keeps row-at-a-time semantics.

The operator probes a whole left chunk with one key kernel and filters
the chunk's candidates with batch kernels. Against a row-at-a-time
oracle (one probe per left row, candidates in index order, the right
predicate then the residual per candidate, a NULL-extended row for an
unmatched LEFT row) it must give the same rows in the same order and the
same ``index_seeks``/``rows_processed`` counts, at any chunk size, and
never emit a chunk larger than ``batch_rows``. Through the engine, its
answers must equal the reference evaluator's, an ``IN (subquery)``
residual included.
"""

from __future__ import annotations

import itertools

import pytest

from repro.catalog.objects import TableDef
from repro.common.schema import Column, Schema
from repro.common.types import INT, VARCHAR
from repro.engine.database import Database
from repro.exec.context import DEFAULT_BATCH_ROWS, ExecutionContext
from repro.exec.expressions import ExpressionCompiler, evaluate
from repro.exec.operators import IndexLookupJoinOp, ValuesOp
from repro.exec.reference import evaluate_select
from repro.sql import parse, parse_expression
from tests.conftest import make_shop_backend

BATCH_SIZES = (1, 2, 256)

STORAGE = Schema(
    [Column("a", INT), Column("b", INT), Column("tag", VARCHAR(10)), Column("w", INT)]
)
RIGHT_POSITIONS = [0, 2, 3]
RIGHT = Schema(
    [
        Column("a", INT, qualifier="r"),
        Column("tag", VARCHAR(10), qualifier="r"),
        Column("w", INT, qualifier="r"),
    ]
)
LEFT = Schema(
    [
        Column("k", INT, qualifier="l"),
        Column("m", INT, qualifier="l"),
        Column("s", VARCHAR(10), qualifier="l"),
    ]
)
LEFT_ROWS = [
    (1, 1, "one"),
    (2, 2, "dups"),
    (None, 1, "null-k"),
    (5, None, "null-m"),
    (9, 1, "absent"),
    (5, 2, "fan-out"),
    (2, 2, "dups-again"),
    (3, 3, "skipped"),
    (4, 1, "one-more"),
]


def make_database() -> Database:
    """``r`` (no primary key) with a one-column and a two-column index:
    three copies of (2, 2), seven rows under a = 5 (more than a small
    chunk), a row the right predicate drops, stored NULL key parts."""
    database = Database("join")
    database.create_storage(TableDef("r", STORAGE))
    table = database.storage_table("r")
    table.create_index("ix_a", ["a"])
    table.create_index("ix_ab", ["a", "b"])
    rows = [(1, 1, "x", 10), (2, 2, "x", 1), (2, 2, "x", 2), (2, 2, "x", 3)]
    rows += [(5, b % 3, "x", b) for b in range(7)]
    rows += [(3, 3, "skip", 30), (4, None, "x", 40), (None, 1, "x", 50), (4, 1, "x", 0)]
    for row in rows:
        table.insert(row)
    return database


def compiled(schema: Schema, text: str):
    return ExpressionCompiler(schema).compile(parse_expression(text))


def values_op():
    return ValuesOp(LEFT, [[lambda rows, ctx, v=v: [v] * len(rows) for v in left] for left in LEFT_ROWS])


def row_at_a_time(database, index_name, key_columns, right_predicate, residual, kind):
    """The join one left row at a time; returns (rows, seeks, fetched)."""
    table = database.storage_table("r")
    index = table.indexes[index_name]
    ctx = ExecutionContext(database=database)
    rows, fetched = [], 0
    for left_row in LEFT_ROWS:
        key = tuple(left_row[i] for i in key_columns)
        matched = False
        if None not in key:
            stored = [
                (tuple(row[p] for p in index.positions), rid)
                for rid, row in table.rows.items()
                if tuple(row[p] for p in index.positions[: len(key)]) == key
            ]
            # Index order: the rest of the key (NULL first), then insertion.
            stored.sort(key=lambda pair: ([(v is not None, v) for v in pair[0]], pair[1]))
            for _, rid in stored:
                right_full = table.rows[rid]
                fetched += 1
                if right_predicate is not None and evaluate(right_predicate, ctx, right_full) is not True:
                    continue
                combined = left_row + tuple(right_full[p] for p in RIGHT_POSITIONS)
                if residual is None or evaluate(residual, ctx, combined) is True:
                    matched = True
                    rows.append(combined)
        if kind == "LEFT" and not matched:
            rows.append(left_row + (None,) * len(RIGHT))
    return rows, len(LEFT_ROWS), fetched


SHAPES = {
    "one-column": ("ix_a", [0]),
    "two-column": ("ix_ab", [0, 1]),
    "prefix": ("ix_ab", [0]),
}


@pytest.mark.parametrize("batch_rows", BATCH_SIZES)
@pytest.mark.parametrize("kind", ["INNER", "LEFT"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("filters", ["none", "right", "residual", "both"])
def test_chunked_join_equals_row_at_a_time(batch_rows, kind, shape, filters):
    database = make_database()
    index_name, key_columns = SHAPES[shape]
    right_predicate = (
        compiled(STORAGE, "tag <> 'skip'") if filters in ("right", "both") else None
    )
    residual = (
        compiled(LEFT.concat(RIGHT), "r.w >= l.m OR l.m IS NULL")
        if filters in ("residual", "both")
        else None
    )
    expected, seeks, fetched = row_at_a_time(
        database, index_name, key_columns, right_predicate, residual, kind
    )
    key_makers = [compiled(LEFT, LEFT.columns[i].name) for i in key_columns]
    op = IndexLookupJoinOp(
        values_op(), RIGHT, "r", index_name, key_makers, RIGHT_POSITIONS,
        right_predicate, residual, kind,
    )
    ctx = ExecutionContext(database=database, batch_rows=batch_rows)
    chunks = list(op.execute_batches(ctx))
    assert all(0 < len(chunk) <= batch_rows for chunk in chunks)
    assert list(itertools.chain.from_iterable(chunks)) == expected
    assert ctx.work.index_seeks == seeks
    assert ctx.work.rows_processed == len(LEFT_ROWS) + fetched  # ValuesOp counts its rows


def test_one_left_row_with_more_matches_than_a_chunk():
    database = make_database()
    key = [compiled(LEFT, "k")]
    left = ValuesOp(LEFT, [[lambda rows, ctx, v=v: [v] * len(rows) for v in (5, 0, "five")]])
    op = IndexLookupJoinOp(left, RIGHT, "r", "ix_a", key, RIGHT_POSITIONS)
    ctx = ExecutionContext(database=database, batch_rows=2)
    chunks = list(op.execute_batches(ctx))
    assert [len(chunk) for chunk in chunks] == [2, 2, 2, 1]
    assert [row[-1] for chunk in chunks for row in chunk] == list(range(7))


#: Lookup joins through the engine: a right-leaf filter, a residual over
#: both sides, and an ``IN (subquery)`` residual like getBestSellers'.
ENGINE_QUERIES = [
    "SELECT o.oid, c.cname FROM orders o JOIN customer c ON o.o_cid = c.cid "
    "WHERE o.oid <= 40",
    "SELECT o.oid, c.cname FROM orders o JOIN customer c ON o.o_cid = c.cid "
    "WHERE o.oid <= 40 AND c.segment = 'gold'",
    "SELECT o.oid, c.cname FROM orders o JOIN customer c ON o.o_cid = c.cid "
    "WHERE o.oid <= 40 AND c.cid + o.oid > 30",
    "SELECT o.oid, c.cname FROM orders o JOIN customer c ON o.o_cid = c.cid "
    "WHERE o.oid <= 40 AND c.cid + o.oid IN (SELECT oid FROM orders WHERE status = 'OPEN')",
]


@pytest.fixture(scope="module")
def shop():
    return make_shop_backend()


@pytest.mark.parametrize("query", ENGINE_QUERIES)
def test_engine_lookup_join_matches_reference(shop, query):
    database = shop.database("shop")
    planned = shop.plan_select(parse(query), database)
    joins = [op for op in planned.root.walk() if isinstance(op, IndexLookupJoinOp)]
    assert joins, planned.root.explain()
    expected = sorted(evaluate_select(database, parse(query))[1])
    counters = set()
    for batch_rows in BATCH_SIZES:
        shop.batch_rows = batch_rows
        try:
            before = (shop.total_work.rows_processed, shop.total_work.index_seeks)
            rows = shop.execute(query, database="shop").rows
            after = (shop.total_work.rows_processed, shop.total_work.index_seeks)
        finally:
            shop.batch_rows = DEFAULT_BATCH_ROWS
        assert sorted(rows) == expected
        counters.add((after[0] - before[0], after[1] - before[1]))
    assert len(counters) == 1  # the work done does not depend on the chunk size
