"""What a sharded tier derives from a placement-only policy: the route
table, each shard's views / shadow tables / copied procedures, and the
refusal of a policy the catalog contradicts."""

from __future__ import annotations

import pytest

from repro.analysis.shardlint import check_partitioner
from repro.client.connection import connect
from repro.errors import CatalogError, ParseError
from repro.mtcache import MTCacheDeployment
from repro.sharding import (
    ShardedDeployment,
    ShardingPolicy,
    TablePartition,
    procedure_routes,
    tpcw_sharding_policy,
)
from repro.sql.formatter import format_expression
from repro.tpcw import TPCWConfig, build_backend
from repro.tpcw.setup import CACHED_VIEW_DDL

pytestmark = pytest.mark.shard

CONFIG = dict(num_items=100, num_ebs=4, seed=13)

#: The procedures the tier routes to a shard (the table
#: ``ShardingPolicy.routes`` used to declare by hand, plus the grouped
#: best-seller scatter); every other TPC-W procedure goes to the backend.
SHARD_ROUTES = {
    "getBook": "key",
    "getStock": "key",
    "doSubjectSearch": "scatter",
    "doTitleSearch": "scatter",
    "doAuthorSearch": "scatter",
    "getNewProducts": "scatter",
    "getBestSellers": "scatter",
}


def test_derived_routes_equal_the_table_that_was_declared(sharded):
    routes = procedure_routes(
        sharded.policy, sharded.deployment.backend_database.catalog
    )
    assert len(routes) == 31
    assert {name: kind for name, kind in routes.items() if kind != "backend"} == SHARD_ROUTES


@pytest.mark.parametrize("shards", [2, 4])
def test_provisioning_is_derived_from_the_views(shards):
    sharded = ShardedDeployment(config=TPCWConfig(**CONFIG), shards=shards)
    full = {
        "cv_author": "CREATE CACHED VIEW cv_author AS SELECT * FROM author",
        "cv_orders": "CREATE CACHED VIEW cv_orders AS SELECT o_id, o_c_id, o_date FROM orders",
    }
    for name, cache in sharded.shards.items():
        low, high = sharded.partitioner.slice(name)
        catalog = cache.database.catalog
        assert {view.name: view.source_text for view in catalog.cached_views()} == {
            **full,
            "cv_item": f"CREATE CACHED VIEW cv_item AS SELECT * FROM item "
            f"WHERE i_id BETWEEN {low} AND {high}",
            "cv_order_line": "CREATE CACHED VIEW cv_order_line AS SELECT ol_id, ol_o_id, "
            f"ol_i_id, ol_qty, ol_discount FROM order_line WHERE ol_i_id BETWEEN {low} AND {high}",
        }
        assert set(catalog.tables) == {"item", "author", "orders", "order_line"}
        assert {procedure.name for procedure in catalog.procedures.values()} == set(SHARD_ROUTES)
        keys = [row[0] for _, row in cache.database.storage_table("cv_item").scan()]
        assert sorted(keys) == list(range(low, high + 1))


def test_two_views_over_one_partitioned_table_reslice_together():
    policy = tpcw_sharding_policy(TPCWConfig(**CONFIG))
    policy.views.append("CREATE CACHED VIEW cv_item_titles AS SELECT i_id, i_title FROM item")
    sharded = ShardedDeployment(config=TPCWConfig(**CONFIG), shards=2, policy=policy)
    router = sharded.router()
    backend = connect(sharded.backend, database=sharded.database_name).cursor()

    def check():
        assert check_partitioner(sharded.partitioner) == []
        sharded.sync()
        for name, cache in sharded.shards.items():
            low, high = sharded.partitioner.slice(name)
            for view in ("cv_item", "cv_item_titles"):
                keys = [row[0] for _, row in cache.database.storage_table(view).scan()]
                assert sorted(keys) == list(range(low, high + 1)), (name, view)
                where = cache.database.catalog.get_view(view).select.where
                assert format_expression(where) == f"i_id BETWEEN {low} AND {high}"
        for sql, params in (
            ("SELECT i_id, i_title FROM item WHERE i_id = @i", {"i": 37}),
            ("EXEC getBook @i_id = @i_id", {"i_id": 88}),
            ("EXEC doSubjectSearch @subject = @subject", {"subject": "HISTORY"}),
        ):
            assert router.execute(sql, params).rows == backend.execute(sql, params).fetchall()

    check()
    sharded.add_shard("shard2")
    check()
    left, right = sorted(sharded.partitioner.shards, key=sharded.partitioner.slice)[:2]
    sharded.move_boundary(left, right, sharded.partitioner.slice(left)[1] - 7)
    check()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(views=["CREATE CACHED VIEW cv_item AS SELEKT * FROM item"]),
        dict(views=["CREATE CACHED VIEW cv_ghost AS SELECT * FROM ghost"]),
        dict(views=["CREATE CACHED VIEW cv_item AS SELECT i_title, i_stock FROM item"]),
        dict(partitions={"item": TablePartition(table="item", key_column="no_such_column")}),
    ],
    ids=["unparsable-view", "unknown-table", "key-not-projected", "missing-key-column"],
)
def test_malformed_policy_fails_before_any_shard_is_provisioned(overrides, monkeypatch):
    monkeypatch.setattr(
        MTCacheDeployment,
        "add_cache_server",
        lambda *args, **kwargs: pytest.fail("a shard was provisioned"),
    )
    backend, config = build_backend(TPCWConfig(num_items=20, num_ebs=2, seed=3))
    declared = dict(
        key_domain=(1, config.num_items),
        partitions={"item": TablePartition(table="item", key_column="i_id")},
        views=list(CACHED_VIEW_DDL),
    )
    declared.update(overrides)
    with pytest.raises((ParseError, CatalogError)):
        ShardedDeployment(backend=backend, shards=2, policy=ShardingPolicy(**declared))
