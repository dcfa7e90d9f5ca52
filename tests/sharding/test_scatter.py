"""Unit tests for scatter-gather decomposition and re-merge."""

from __future__ import annotations

from repro.sharding.policy import TablePartition, tpcw_sharding_policy
from repro.sharding.scatter import decompose
from repro.sql import parse
from repro.tpcw import TPCWConfig
import pytest


pytestmark = pytest.mark.shard

POLICY = tpcw_sharding_policy(TPCWConfig(num_items=100))
PARTITIONS = POLICY.partitions


def _select(sql: str):
    return parse(sql)


def test_decompose_simple_scan():
    scatter = decompose(
        _select("SELECT i_id, i_title FROM item WHERE i_subject = @s"), PARTITIONS
    )
    assert scatter is not None
    assert scatter.partition.table == "item"
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
    assert scatter.partition.table == "item"


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


def test_shard_sql_is_a_valid_statement():
    scatter = decompose(
        _select("SELECT i_id, i_title FROM item WHERE i_cost < @c ORDER BY i_title"),
        PARTITIONS,
    )
    assert scatter is not None
    from repro.sql import ast

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
