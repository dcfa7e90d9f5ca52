"""Planner tests on a backend server (local planning, access paths)."""

import pytest

from repro.exec.operators import (
    FilterOp,
    HashJoinOp,
    IndexExtremeOp,
    IndexLookupJoinOp,
    IndexRangeScanOp,
    IndexSeekOp,
    RemoteQueryOp,
    SeqScanOp,
)
from repro.sql import parse

from tests.conftest import make_shop_backend


@pytest.fixture(scope="module")
def backend():
    return make_shop_backend()


def plan(backend, sql):
    return backend.plan_select(parse(sql), backend.database("shop"), cache_key=sql)


def ops_in(planned, op_type):
    return [node for node in planned.root.walk() if isinstance(node, op_type)]


class TestAccessPaths:
    def test_point_query_uses_pk_seek(self, backend):
        planned = plan(backend, "SELECT cname FROM customer WHERE cid = 7")
        assert ops_in(planned, IndexSeekOp)

    def test_range_query_uses_range_scan(self, backend):
        planned = plan(backend, "SELECT cname FROM customer WHERE cid <= 50")
        assert ops_in(planned, IndexRangeScanOp)

    def test_secondary_index_on_equality(self, backend):
        planned = plan(backend, "SELECT cid FROM customer WHERE segment = 'gold'")
        seeks = ops_in(planned, IndexSeekOp)
        assert seeks and seeks[0].index_name == "ix_customer_segment"

    def test_seek_is_not_filtered_again_on_its_key(self, backend):
        planned = plan(backend, "SELECT cid FROM customer WHERE segment = 'gold'")
        assert ops_in(planned, IndexSeekOp) and not ops_in(planned, FilterOp)

    def test_seek_filters_the_conjuncts_it_does_not_answer(self, backend):
        sql = "SELECT cid FROM customer WHERE segment = 'gold' AND cname <> 'cust6'"
        (filter_op,) = ops_in(plan(backend, sql), FilterOp)
        assert isinstance(filter_op.children[0], IndexSeekOp)
        # ``segment + ''`` is no column: the twin query scans.
        scanned = sql.replace("segment =", "segment + '' =")
        assert ops_in(plan(backend, scanned), SeqScanOp)
        rows = backend.execute(sql, database="shop").rows
        assert rows and sorted(rows) == sorted(backend.execute(scanned, database="shop").rows)
        assert (6,) not in rows

    def test_range_scan_keeps_its_filter(self, backend):
        planned = plan(backend, "SELECT cname FROM customer WHERE cid <= 50")
        (scan,) = ops_in(planned, IndexRangeScanOp)
        assert any(
            isinstance(node, FilterOp) and node.children[0] is scan
            for node in planned.root.walk()
        )

    def test_unindexed_predicate_scans(self, backend):
        planned = plan(backend, "SELECT cid FROM customer WHERE cname = 'cust5'")
        assert ops_in(planned, SeqScanOp)

    def test_no_predicate_scans(self, backend):
        planned = plan(backend, "SELECT cid FROM customer")
        assert ops_in(planned, SeqScanOp)

    def test_min_max_uses_index_extreme(self, backend):
        planned = plan(backend, "SELECT MAX(cid) FROM customer")
        assert ops_in(planned, IndexExtremeOp)

    def test_min_max_with_predicate_does_not(self, backend):
        planned = plan(backend, "SELECT MAX(cid) FROM customer WHERE segment = 'gold'")
        assert not ops_in(planned, IndexExtremeOp)

    def test_local_plan_has_no_remote(self, backend):
        planned = plan(backend, "SELECT cname FROM customer WHERE cid = 7")
        assert not planned.uses_remote
        assert not ops_in(planned, RemoteQueryOp)


class TestJoins:
    def test_pk_join_uses_index_lookup(self, backend):
        planned = plan(
            backend,
            "SELECT c.cname, o.total FROM orders o JOIN customer c ON o.o_cid = c.cid "
            "WHERE o.oid = 5",
        )
        assert ops_in(planned, IndexLookupJoinOp)

    def test_unindexed_join_uses_hash(self, backend):
        planned = plan(
            backend,
            "SELECT c.cname, o.status FROM customer c JOIN orders o ON c.cname = o.status",
        )
        assert ops_in(planned, HashJoinOp)

    def test_join_results_correct(self, backend):
        result = backend.execute(
            "SELECT c.cname, o.total FROM orders o JOIN customer c ON o.o_cid = c.cid "
            "WHERE o.oid = 5",
            database="shop",
        )
        assert result.rows == [("cust6", 7.5)]

    def test_three_way_join(self, backend):
        result = backend.execute(
            "SELECT COUNT(*) FROM customer c "
            "JOIN orders o ON o.o_cid = c.cid "
            "JOIN orders o2 ON o2.o_cid = c.cid "
            "WHERE c.cid = 10",
            database="shop",
        )
        assert result.scalar == 4  # 2 orders for cid 10, squared

    def test_cross_join_count(self, backend):
        result = backend.execute(
            "SELECT COUNT(*) FROM customer c, orders o WHERE c.cid = 1 AND o.oid = 1",
            database="shop",
        )
        assert result.scalar == 1


class TestAggregationPlanning:
    def test_group_by_with_having_and_order(self, backend):
        result = backend.execute(
            "SELECT segment, COUNT(*) AS n, SUM(cid) AS s FROM customer "
            "GROUP BY segment HAVING COUNT(*) > 10 ORDER BY n DESC",
            database="shop",
        )
        assert len(result.rows) == 2
        assert result.rows[0][1] >= result.rows[1][1]

    def test_order_by_alias(self, backend):
        result = backend.execute(
            "SELECT cid AS k FROM customer WHERE cid <= 5 ORDER BY k DESC",
            database="shop",
        )
        assert [row[0] for row in result.rows] == [5, 4, 3, 2, 1]

    def test_order_by_aggregate_not_in_select(self, backend):
        result = backend.execute(
            "SELECT segment FROM customer GROUP BY segment ORDER BY COUNT(*) DESC",
            database="shop",
        )
        assert result.rows[0] == ("base",)

    def test_distinct(self, backend):
        result = backend.execute(
            "SELECT DISTINCT segment FROM customer", database="shop"
        )
        assert sorted(result.rows) == [("base",), ("gold",)]

    def test_top_after_order(self, backend):
        result = backend.execute(
            "SELECT TOP 3 cid FROM customer ORDER BY cid DESC", database="shop"
        )
        assert [row[0] for row in result.rows] == [200, 199, 198]

    def test_avg_and_arithmetic_on_aggregates(self, backend):
        result = backend.execute(
            "SELECT AVG(total) + 0.0 AS a, MIN(total), MAX(total) FROM orders",
            database="shop",
        )
        assert result.rows[0][1] == 1.5
        assert result.rows[0][2] == 600.0


class TestDerivedTablesAndViews:
    def test_derived_table(self, backend):
        result = backend.execute(
            "SELECT COUNT(*) FROM (SELECT cid FROM customer WHERE cid <= 10) AS d",
            database="shop",
        )
        assert result.scalar == 10

    def test_plain_view_substitution(self, backend):
        backend.execute(
            "CREATE VIEW gold_customers AS SELECT cid, cname FROM customer WHERE segment = 'gold'",
            database="shop",
        )
        result = backend.execute(
            "SELECT COUNT(*) FROM gold_customers", database="shop"
        )
        assert result.scalar == 66

    def test_select_without_from(self, backend):
        result = backend.execute("SELECT 1 + 2 AS three, 'x'", database="shop")
        assert result.rows == [(3, "x")]

    def test_in_subquery_execution(self, backend):
        result = backend.execute(
            "SELECT COUNT(*) FROM customer WHERE cid IN "
            "(SELECT o_cid FROM orders WHERE total > 595)",
            database="shop",
        )
        assert result.scalar == 4  # orders 397..400 -> customers 198,199,200,1

    def test_scalar_subquery(self, backend):
        result = backend.execute(
            "SELECT (SELECT MAX(cid) FROM customer) AS m", database="shop"
        )
        assert result.scalar == 200


class TestOuterJoins:
    def test_left_join_preserves_unmatched(self, backend):
        backend.execute(
            "CREATE TABLE extras (xid INT PRIMARY KEY, note VARCHAR(20))",
            database="shop",
        )
        backend.execute("INSERT INTO extras VALUES (1, 'one')", database="shop")
        result = backend.execute(
            "SELECT c.cid, e.note FROM customer c LEFT JOIN extras e ON c.cid = e.xid "
            "WHERE c.cid <= 3",
            database="shop",
        )
        by_cid = {row[0]: row[1] for row in result.rows}
        assert by_cid == {1: "one", 2: None, 3: None}
