"""Grouped scatter: the best-seller query runs on the shards, exactly.

``getBestSellers`` joins ``item`` and ``order_line`` on the item id —
the key both tables are partitioned on — and groups by it, so every group
lives on one shard and the per-shard sums are the global ones. Its TOP
cuts ``ORDER BY orders_sum DESC`` alone, so which of several rows tied
at the cut make it in is plan-shaped (the harness's identity reads skip
it for the same reason); everything above the last tied sum is not.
"""

from __future__ import annotations

import pytest

from repro.client.connection import connect
from repro.sharding import ShardedDeployment
from repro.sharding.routing import decide
from repro.sql import parse
from repro.tpcw import TPCWConfig
from repro.tpcw.config import SUBJECTS

pytestmark = pytest.mark.shard

# A small TOP so the merge's cut is exercised on most subjects.
CONFIG = dict(num_items=240, num_ebs=4, seed=23, search_result_limit=3)
BEST_SELLERS = "EXEC getBestSellers @subject = @subject"


def _assert_same_best_sellers(actual, expected):
    sums = [row[-1] for row in expected]
    assert [row[-1] for row in actual] == sums
    if sums:
        cut = sums[-1]
        assert sorted(row for row in actual if row[-1] > cut) == sorted(
            row for row in expected if row[-1] > cut
        )


def _check_every_subject(sharded, router, backend):
    """Every subject agrees with the backend and is answered by the shards
    alone: one hop per shard, and no row touched on the backend."""
    sharded.sync()
    fanout = sharded.metrics.counter("shard.fanout")
    fanout_before = fanout.value
    work_before = sharded.backend.total_work.rows_processed
    answers = {
        subject: router.execute(BEST_SELLERS, {"subject": subject}).rows
        for subject in SUBJECTS
    }
    assert sharded.backend.total_work.rows_processed == work_before
    assert fanout.value == fanout_before + len(SUBJECTS) * len(sharded.partitioner.shards)
    for subject, rows in answers.items():
        expected = backend.execute(BEST_SELLERS, {"subject": subject}).fetchall()
        _assert_same_best_sellers(rows, expected)
    return answers


def _check_slices_on_the_backend(sharded, backend):
    """Each slice statement selects its rows by value: run on the backend's
    base tables instead of the shards, the merge is still exact."""
    catalog = sharded.deployment.backend_database.catalog
    route = decide(parse(BEST_SELLERS), sharded.policy, catalog)
    assert route.kind == "scatter" and route.scatter is not None
    for subject in SUBJECTS:
        params = {"subject": subject}
        slices = [
            backend.execute(route.scatter.shard_sql(*sharded.partitioner.slice(shard)), params)
            .fetchall()
            for shard in sharded.partitioner.shards
        ]
        expected = backend.execute(BEST_SELLERS, params).fetchall()
        _assert_same_best_sellers(route.scatter.merge(slices), expected)


@pytest.mark.parametrize("shards", [2, 4])
def test_best_sellers_scatter_and_match_the_backend(shards):
    sharded = ShardedDeployment(config=TPCWConfig(**CONFIG), shards=shards)
    router = sharded.router()
    backend = connect(sharded.backend, database=sharded.database_name).cursor()

    answers = _check_every_subject(sharded, router, backend)
    assert sum(len(rows) for rows in answers.values()) > 0
    assert any(len(rows) == CONFIG["search_result_limit"] for rows in answers.values())
    _check_slices_on_the_backend(sharded, backend)

    # Replicated writes reach each slice: sums move on the shards too.
    backend.execute("UPDATE order_line SET ol_qty = ol_qty + 7 WHERE ol_i_id % 5 = 0")
    _check_every_subject(sharded, router, backend)

    sharded.add_shard(f"shard{shards}")
    _check_every_subject(sharded, router, backend)
    _check_slices_on_the_backend(sharded, backend)

    left, right = sorted(sharded.partitioner.shards, key=sharded.partitioner.slice)[:2]
    sharded.move_boundary(left, right, sharded.partitioner.slice(left)[1] - 11)
    _check_every_subject(sharded, router, backend)
    _check_slices_on_the_backend(sharded, backend)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT ol.ol_i_id, SUM(ol.ol_qty) AS total, COUNT(*) AS lines FROM order_line ol "
        "JOIN item i ON ol.ol_i_id = i.i_id WHERE i.i_subject = @subject "
        "GROUP BY ol.ol_i_id HAVING SUM(ol.ol_qty) > 2",
        "SELECT ol_i_id, MAX(ol_qty), MIN(ol_o_id) FROM order_line GROUP BY ol_i_id",
    ],
    ids=["join-having", "one-table"],
)
def test_per_shard_groups_and_having_are_the_global_ones(sharded, router, sql):
    backend = connect(sharded.backend, database=sharded.database_name).cursor()
    sharded.sync()
    fanout = sharded.metrics.counter("shard.fanout")
    for subject in SUBJECTS[:6]:
        expected = backend.execute(sql, {"subject": subject}).fetchall()
        assert expected
        before = fanout.value
        assert sorted(router.execute(sql, {"subject": subject}).rows) == sorted(expected)
        assert fanout.value == before + len(sharded.shards)
