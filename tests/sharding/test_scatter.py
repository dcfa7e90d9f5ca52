"""Unit tests for scatter-gather decomposition and re-merge."""

from __future__ import annotations

from repro.sharding.policy import TablePartition, tpcw_sharding_policy
from repro.sharding.routing import decide
from repro.sharding.scatter import decompose
from repro.sql import ast, parse
from repro.tpcw import TPCWConfig
from repro.tpcw.procedures import procedure_definitions
import pytest


pytestmark = pytest.mark.shard

CONFIG = TPCWConfig(num_items=100)
POLICY = tpcw_sharding_policy(CONFIG)
PARTITIONS = POLICY.partitions


def _select(sql: str):
    return parse(sql)


def test_decompose_simple_scan():
    scatter = decompose(
        _select("SELECT i_id, i_title FROM item WHERE i_subject = @s"), PARTITIONS
    )
    assert scatter is not None
    assert scatter.keys == (ast.ColumnRef("i_id"),)
    assert scatter.width == 2
    sql = scatter.shard_sql(10, 19)
    assert "BETWEEN 10 AND 19" in sql
    assert "i_subject" in sql


def test_decompose_appends_missing_sort_column():
    scatter = decompose(
        _select(
            "SELECT i_id, i_title FROM item WHERE i_subject = @s "
            "ORDER BY i_pub_date DESC, i_title"
        ),
        PARTITIONS,
    )
    assert scatter is not None
    # i_pub_date was not projected: appended, sorted on, stripped.
    assert len(scatter.select.items) == 3
    assert scatter.width == 2
    assert scatter.sort_keys == ((2, True), (1, False))


def test_decompose_keeps_top_and_merge_reapplies_it():
    scatter = decompose(
        _select("SELECT TOP 3 i_id FROM item ORDER BY i_id"), PARTITIONS
    )
    assert scatter is not None and scatter.top == 3
    # Each shard returns its local top-3; the global top-3 comes out.
    merged = scatter.merge([[(7,), (9,), (12,)], [(1,), (2,), (3,)]])
    assert merged == [(1,), (2,), (3,)]


def test_merge_is_stable_on_ties_and_sorts_nulls_first():
    scatter = decompose(
        _select("SELECT i_id, i_cost FROM item ORDER BY i_cost"), PARTITIONS
    )
    assert scatter is not None
    merged = scatter.merge([[(1, 5.0), (2, None)], [(3, 5.0)]])
    # NULL first (engine sort order), then the tied 5.0s in shard order.
    assert merged == [(2, None), (1, 5.0), (3, 5.0)]


def test_merge_strips_appended_columns():
    scatter = decompose(
        _select("SELECT i_id FROM item ORDER BY i_pub_date DESC"), PARTITIONS
    )
    assert scatter is not None
    merged = scatter.merge([[(4, "2003-01-02")], [(9, "2003-06-01")]])
    assert merged == [(9,), (4,)]


def test_decompose_allows_inner_join_with_broadcast_table():
    scatter = decompose(
        _select(
            "SELECT i_id, i_title, a_fname FROM item, author "
            "WHERE i_a_id = a_id AND i_subject = @s"
        ),
        PARTITIONS,
    )
    assert scatter is not None
    assert scatter.keys == (ast.ColumnRef("i_id"),)


def test_non_decomposable_shapes_route_to_backend():
    undecomposable = [
        "SELECT COUNT(*) FROM item",  # bare aggregate: sum of parts != whole
        "SELECT COUNT(*) FROM item GROUP BY i_subject",
        "SELECT DISTINCT i_subject FROM item",
        "SELECT * FROM item",
        "SELECT i_id FROM item WHERE i_id IN (SELECT ol_i_id FROM order_line)",
        "SELECT c_uname FROM customer",  # no partitioned table
        "SELECT i_id, ol_id FROM item, order_line",  # two partitioned tables
        "SELECT i_id FROM item LEFT JOIN author ON i_a_id = a_id",
        "SELECT TOP @n i_id FROM item",  # non-literal TOP
    ]
    for sql in undecomposable:
        assert decompose(_select(sql), PARTITIONS) is None, sql


def test_best_sellers_group_by_the_co_partition_key_and_scatter():
    body = parse(procedure_definitions(CONFIG)["getBestSellers"]).body[0]
    scatter = decompose(body, PARTITIONS)
    assert scatter is not None
    # One slice conjunct per partitioned reference: view matching does not
    # chase i.i_id = ol.ol_i_id, so each sliced view needs its own.
    assert scatter.keys == (ast.ColumnRef("i_id", "i"), ast.ColumnRef("ol_i_id", "ol"))
    assert scatter.shard_sql(1, 50).endswith(
        "AND i.i_id BETWEEN 1 AND 50 AND ol.ol_i_id BETWEEN 1 AND 50 "
        "GROUP BY i.i_id, i.i_title, a.a_fname, a.a_lname ORDER BY orders_sum DESC"
    )
    assert scatter.sort_keys == ((4, True),) and scatter.top == CONFIG.search_result_limit


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT ol_i_id, COUNT(*) FROM order_line GROUP BY ol_i_id",
        "SELECT ol.ol_i_id, SUM(ol.ol_qty) AS total FROM order_line ol "
        "JOIN item i ON ol.ol_i_id = i.i_id WHERE i.i_subject = @s "
        "GROUP BY ol.ol_i_id HAVING SUM(ol.ol_qty) > 2 ORDER BY total DESC",
        "SELECT i_id, SUM(ol_qty) FROM item, order_line WHERE ol_i_id = i_id "
        "AND i_a_id IN (SELECT a_id FROM author WHERE a_lname LIKE @l) GROUP BY i_id",
    ],
    ids=["one-table", "join-on-having", "broadcast-subquery"],
)
def test_groups_on_the_key_scatter(sql):
    assert decide(parse(sql), POLICY, None).kind == "scatter"


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT i.i_subject, SUM(ol.ol_qty) FROM item i, order_line ol "
        "WHERE i.i_id = ol.ol_i_id GROUP BY i.i_subject",
        "SELECT i.i_id, SUM(ol.ol_qty) FROM item i, order_line ol "
        "WHERE i.i_id = ol.ol_o_id GROUP BY i.i_id",
        "SELECT i.i_id, SUM(ol.ol_qty) FROM item i, order_line ol "
        "WHERE i.i_id = ol.ol_i_id AND i.i_related1 IN (SELECT ol_i_id FROM order_line) "
        "GROUP BY i.i_id",
        "SELECT i.i_id, SUM(ol.ol_qty) FROM item i "
        "LEFT JOIN order_line ol ON i.i_id = ol.ol_i_id GROUP BY i.i_id",
        "SELECT DISTINCT SUM(ol.ol_qty) AS total FROM item i "
        "JOIN order_line ol ON i.i_id = ol.ol_i_id GROUP BY i.i_id",
        "SELECT SUM(ol.ol_qty) FROM item i, order_line ol WHERE i.i_id = ol.ol_i_id",
        "SELECT i.i_id, ol.ol_qty FROM item i, order_line ol WHERE i.i_id = ol.ol_i_id",
        "SELECT i_id, SUM(ol_qty) FROM item, order_line WHERE ol_i_id = i_id "
        "AND i_a_id IN (SELECT c_id FROM customer) GROUP BY i_id",
    ],
    ids=[
        "group-by-without-key",
        "join-on-non-key",
        "subquery-over-partitioned",
        "left-join",
        "distinct",
        "bare-aggregate",
        "ungrouped-join",
        "subquery-over-unshadowed",
    ],
)
def test_groups_that_span_shards_stay_on_the_backend(sql):
    assert decide(parse(sql), POLICY, None).kind == "backend"


def test_shard_sql_is_a_valid_statement():
    scatter = decompose(
        _select("SELECT i_id, i_title FROM item WHERE i_cost < @c ORDER BY i_title"),
        PARTITIONS,
    )
    assert scatter is not None
    reparsed = parse(scatter.shard_sql(1, 50))
    assert isinstance(reparsed, ast.Select)


def test_partition_ddl_carries_slice(sharded):
    partition = PARTITIONS["item"]
    assert isinstance(partition, TablePartition)
    for name, cache in sharded.shards.items():
        low, high = sharded.partitioner.slice(name)
        ddl = cache.database.catalog.get_view("cv_item").source_text
        assert "CREATE CACHED VIEW" in ddl
        assert f"{partition.key_column} BETWEEN {low} AND {high}" in ddl
