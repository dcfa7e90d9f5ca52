"""The batch operator protocol: oracle equivalence, chunking, caching.

Operators move chunks of rows (``PhysicalOperator.execute_batches``)
through compiled batch kernels; anything not answerable from these tests
lives next to the expression-level checks in ``test_expressions.py``.
The invariant everything here leans on: for every query the engine must
produce the rows the scalar reference evaluator
(``exec.reference.evaluate_select``) produces.
"""

from collections import Counter

import pytest

import repro.optimizer.planner  # noqa: F401  (defines an operator of its own)
from repro.common.schema import Column, Schema
from repro.common.types import INT
from repro.catalog.objects import TableDef
from repro.engine.database import Database
from repro.exec.context import DEFAULT_BATCH_ROWS, ExecutionContext
from repro.exec.expressions import ExpressionCompiler, compiled_like_pattern
from repro.exec.operators import (
    BatchCursor,
    FilterOp,
    NestedLoopJoinOp,
    PhysicalOperator,
    ProjectOp,
    SeqScanOp,
    ValuesOp,
)
from repro.exec.reference import evaluate_select
from repro.sql import ast, parse, parse_expression
from tests.conftest import make_shop_backend

#: Queries spanning the kernel operators and the loop-shaped ones:
#: scans, filters (LIKE/AND/OR/IS NULL/params), projection arithmetic,
#: aggregation with and without GROUP BY, hash and index-lookup joins,
#: sorting, TOP, DISTINCT, UNION ALL, and subqueries.
EQUIVALENCE_QUERIES = [
    "SELECT * FROM customer",
    "SELECT cid, cname FROM customer WHERE cid <= 25",
    "SELECT cname FROM customer WHERE segment = 'gold' AND cid > 50",
    "SELECT cname FROM customer WHERE segment = 'gold' OR cid < 5",
    "SELECT cname FROM customer WHERE cname LIKE 'cust1%'",
    "SELECT cid FROM customer WHERE caddress IS NOT NULL AND cid % 7 = 0",
    "SELECT oid, total * 2 + 1 FROM orders WHERE status = 'OPEN'",
    "SELECT COUNT(*), SUM(total), AVG(total), MIN(total), MAX(total) FROM orders",
    "SELECT status, COUNT(*), SUM(total) FROM orders GROUP BY status",
    "SELECT segment, COUNT(*) FROM customer GROUP BY segment HAVING COUNT(*) > 10",
    "SELECT c.cname, o.total FROM customer c JOIN orders o ON c.cid = o.o_cid "
    "WHERE o.total > 500 ORDER BY o.total DESC",
    "SELECT TOP 7 cname FROM customer ORDER BY cid DESC",
    "SELECT DISTINCT status FROM orders",
    "SELECT cid FROM customer WHERE cid <= 3 "
    "UNION ALL SELECT oid FROM orders WHERE oid <= 3",
    "SELECT cname FROM customer WHERE cid IN "
    "(SELECT o_cid FROM orders WHERE total > 550)",
    "SELECT o_cid, SUM(total) FROM orders GROUP BY o_cid "
    "ORDER BY SUM(total) DESC",
]


@pytest.fixture
def server():
    return make_shop_backend()


def assert_matches_oracle(server, query, params=None):
    """Engine rows == reference rows: ordered under ORDER BY, else as a
    multiset. Returns the engine's rows."""
    statement = parse(query)
    database = server.database("shop")
    if isinstance(statement, ast.UnionAll):
        ordered = False
        expected = [
            row
            for branch in statement.branches
            for row in evaluate_select(database, branch, params)[1]
        ]
    else:
        ordered = bool(statement.order_by)
        expected = evaluate_select(database, statement, params)[1]
    rows = server.execute(query, params=params).rows
    if ordered:
        assert rows == expected, query
    else:
        assert Counter(rows) == Counter(expected), query
    return rows


class TestOracleEquivalence:
    @pytest.mark.parametrize("query", EQUIVALENCE_QUERIES)
    def test_same_rows_as_reference(self, server, query):
        assert_matches_oracle(server, query)

    def test_parameters_hoisted_per_batch(self, server):
        rows = assert_matches_oracle(
            server,
            "SELECT cname FROM customer WHERE cid <= @limit AND segment = @seg",
            params={"limit": 60, "seg": "gold"},
        )
        assert rows  # the query must actually select something

    def test_null_heavy_rows(self, server):
        server.execute("INSERT INTO customer VALUES (998, 'nully', NULL, NULL)")
        server.execute("INSERT INTO orders VALUES (9001, 998, NULL, NULL)")
        for query in (
            "SELECT cid FROM customer WHERE caddress IS NULL",
            "SELECT cname FROM customer WHERE segment = 'gold'",
            "SELECT COUNT(total), SUM(total), AVG(total) FROM orders",
            "SELECT status, COUNT(*) FROM orders GROUP BY status",
            "SELECT cname FROM customer WHERE cname LIKE 'nul%'",
        ):
            assert_matches_oracle(server, query)

    def test_work_counters_count_input_rows(self, server):
        query = "SELECT status, COUNT(*) FROM orders WHERE total > 100 GROUP BY status"
        server.reset_work()
        server.execute(query)
        # One touch per input row: scan 400 + filter 400, then the 334
        # orders over 100 through the pruning projection and the
        # aggregate, then its 2 groups through the output projection.
        assert server.total_work.rows_processed == 400 + 400 + 334 + 334 + 2


class TestBatchProtocol:
    def _scan(self):
        database = Database("t")
        schema = Schema([Column("id", INT, nullable=False, qualifier="t")])
        database.create_storage(TableDef("t", schema, primary_key=("id",)))
        table = database.storage_table("t")
        for i in range(1, 1001):
            table.insert((i,))
        return database, SeqScanOp(schema, "t")

    def test_scan_yields_fixed_size_chunks(self):
        database, scan = self._scan()
        ctx = ExecutionContext(database=database, batch_rows=64)
        chunks = list(scan.execute_batches(ctx))
        assert [len(chunk) for chunk in chunks] == [64] * 15 + [40]
        assert [row for chunk in chunks for row in chunk] == [
            (i,) for i in range(1, 1001)
        ]

    def test_batches_are_never_empty(self):
        database, scan = self._scan()
        predicate = ExpressionCompiler(scan.schema).compile(
            parse_expression("id = 77")
        )
        op = FilterOp(scan, predicate)
        ctx = ExecutionContext(database=database, batch_rows=50)
        chunks = list(op.execute_batches(ctx))
        # 19 of the 20 input chunks filter to nothing and must be elided.
        assert chunks == [[(77,)]]

    def test_loop_shaped_operator_honours_chunk_contract(self):
        # NestedLoopJoinOp is a per-row loop behind ``_chunked``: output
        # must come in full chunks plus one non-empty remainder.
        database = Database("t")
        schema = Schema([Column("n", INT, qualifier="v")])

        def values(count):
            return ValuesOp(
                schema, [[lambda rows, ctx, v=i: [v] * len(rows)] for i in range(count)]
            )

        join = NestedLoopJoinOp(values(3), values(4))
        ctx = ExecutionContext(database=database, batch_rows=5)
        chunks = list(join.execute_batches(ctx))
        assert [len(chunk) for chunk in chunks] == [5, 5, 2]
        # An exact multiple of the chunk size must not end on an empty chunk.
        ctx = ExecutionContext(database=database, batch_rows=4)
        assert [len(chunk) for chunk in join.execute_batches(ctx)] == [4, 4, 4]

    def test_batch_cursor(self):
        database, scan = self._scan()
        cursor = BatchCursor(scan, ExecutionContext(database=database, batch_rows=400))
        sizes = []
        while (chunk := cursor.next_batch()) is not None:
            sizes.append(len(chunk))
        assert sizes == [400, 400, 200]
        assert cursor.next_batch() is None  # exhausted stays exhausted
        cursor.close()

    def test_kernel_cache_counts_hits_and_misses(self):
        database, scan = self._scan()
        key = ExpressionCompiler(scan.schema).compile(parse_expression("id + 1"))
        op = ProjectOp(scan, Schema([Column("k", INT)]), [key])
        ctx = ExecutionContext(database=database, batch_rows=100)
        assert len(list(op.execute_batches(ctx))) == 10
        assert ctx.compiled_cache_misses == 1
        assert ctx.compiled_cache_hits == 0
        # Re-executing the same operator instance reuses the built kernel.
        list(op.execute_batches(ctx))
        assert ctx.compiled_cache_misses == 1
        assert ctx.compiled_cache_hits == 1

    def test_context_inherits_server_batch_rows(self):
        from repro.engine import Server
        from repro.engine.session import Session

        server = Server("s", batch_rows=33)
        server.create_database("d")
        ctx = server._make_context({}, server.database("d"), Session())
        assert ctx.batch_rows == 33
        assert ExecutionContext(database=None).batch_rows == DEFAULT_BATCH_ROWS


def _operator_classes(base=PhysicalOperator):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("repro."):
            yield cls
        yield from _operator_classes(cls)


class TestOneProtocol:
    def test_every_operator_defines_only_the_batch_protocol(self):
        assert "execute" not in vars(PhysicalOperator)
        classes = set(_operator_classes())
        assert len(classes) >= 18  # 17 operators and the planner's relabel
        for cls in classes:
            assert "execute" not in vars(cls), cls
            assert "execute_batches" in vars(cls), cls

    def test_base_protocol_is_abstract(self):
        with pytest.raises(NotImplementedError):
            PhysicalOperator(Schema([])).execute_batches(ExecutionContext())


class TestObservability:
    def test_exec_metrics_exported(self, server):
        server.execute("SELECT status, COUNT(*) FROM orders GROUP BY status")
        counters = server.metrics.snapshot()["counters"]
        assert counters["exec.batches"] > 0
        assert counters["exec.compiled_cache_misses"] > 0
        histogram = server.metrics.snapshot()["histograms"]["exec.batch_rows"]
        assert histogram["count"] == counters["exec.batches"]
        assert 0 < histogram["mean"] <= DEFAULT_BATCH_ROWS

    def test_batch_rows_count_rows_in_row_buckets(self, server):
        server.metrics.reset()
        result = server.execute("SELECT cid FROM customer WHERE cid <= 5")
        assert len(result.rows) == 5
        buckets = server.metrics.snapshot()["histograms"]["exec.batch_rows"]["buckets"]
        assert list(buckets) == ["1", "8", "64", "256", "1024", "4096", "+Inf"]
        assert buckets["8"] == 1 and buckets["+Inf"] == 0

    def test_profile_counts_batches(self, server):
        server.profile_statements = True
        result = server.execute("SELECT cname FROM customer WHERE cid <= 150")
        profile = result.profile
        assert profile is not None
        assert profile.root.actual_rows == 150
        assert profile.root.actual_batches >= 1
        assert "batches=" in profile.render()
        assert profile.to_dict()["actual_batches"] == profile.root.actual_batches


class TestLikeMemo:
    def test_pattern_compiled_once(self):
        first = compiled_like_pattern("abc%")
        assert compiled_like_pattern("abc%") is first

    def test_memo_is_bounded(self):
        from repro.exec import expressions

        for i in range(expressions._like_pattern_memo.capacity + 50):
            compiled_like_pattern(f"p{i}%")
        assert (
            len(expressions._like_pattern_memo)
            <= expressions._like_pattern_memo.capacity
        )

    def test_dynamic_like_matches_scalar(self, server):
        # Pattern comes from a parameter: compiled per chunk, not per row.
        rows = assert_matches_oracle(
            server,
            "SELECT cname FROM customer WHERE cname LIKE @pat",
            params={"pat": "cust1_"},
        )
        assert len(rows) == 10
