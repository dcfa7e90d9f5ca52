"""Rebalancing: add-shard splits, boundary moves, tick-driven execution."""

from __future__ import annotations

import pytest

from repro.client.connection import connect
from repro.sharding import ShardedDeployment
from repro.tpcw import TPCWConfig

pytestmark = pytest.mark.shard

CONFIG = dict(num_items=100, num_ebs=4, seed=13)


def _fresh(shards=2):
    return ShardedDeployment(config=TPCWConfig(**CONFIG), shards=shards)


def _probe(sharded, router, items=(1, 25, 50, 75, 100)):
    backend = connect(sharded.backend, database=sharded.database_name)
    for item in items:
        expected = backend.cursor().execute(
            "EXEC getBook @i_id = @i_id", {"i_id": item}
        ).result.rows
        actual = router.execute("EXEC getBook @i_id = @i_id", {"i_id": item}).rows
        assert actual == expected, f"item {item} diverged"
    expected = backend.cursor().execute(
        "EXEC doSubjectSearch @subject = @subject", {"subject": "HISTORY"}
    ).result.rows
    actual = router.execute(
        "EXEC doSubjectSearch @subject = @subject", {"subject": "HISTORY"}
    ).rows
    assert actual == expected


def test_add_shard_splits_widest_and_stays_correct():
    sharded = _fresh(shards=2)
    router = sharded.router()
    _probe(sharded, router)
    donor = sharded.partitioner.widest_shard()
    donor_before = sharded.partitioner.slice(donor)
    sharded.add_shard("shard2")
    assert set(sharded.partitioner.shards) == {"shard0", "shard1", "shard2"}
    donor_after = sharded.partitioner.slice(donor)
    given = sharded.partitioner.slice("shard2")
    # The donor's old range is exactly tiled by (kept, given).
    assert donor_after[0] == donor_before[0]
    assert donor_after[1] + 1 == given[0]
    assert given[1] == donor_before[1]
    sharded.sync()
    _probe(sharded, router)
    # The new shard serves its keys locally through the SAME router
    # (built before the shard existed).
    hit = sharded.metrics.counter("shard.hits", labels={"shard": "shard2"})
    before = hit.value
    router.execute("EXEC getBook @i_id = @i_id", {"i_id": given[0]})
    assert hit.value == before + 1


def test_replication_reaches_rebalanced_slice():
    sharded = _fresh(shards=2)
    sharded.add_shard("shard2")
    router = sharded.router()
    low, _ = sharded.partitioner.slice("shard2")
    backend = connect(sharded.backend, database=sharded.database_name)
    backend.cursor().execute(f"UPDATE item SET i_stock = 999 WHERE i_id = {low}")
    backend.commit()
    sharded.sync()
    rows = router.execute("EXEC getStock @i_id = @i_id", {"i_id": low}).rows
    assert rows == [(999,)]


def test_boundary_move_shifts_rows_and_stays_correct():
    sharded = _fresh(shards=2)
    router = sharded.router()
    left, right = sharded.partitioner.shards
    left_low, left_high = sharded.partitioner.slice(left)
    _, right_high = sharded.partitioner.slice(right)
    cut = left_high + 10  # grow the left shard by ten keys
    moved = sharded.move_boundary(left, right, cut)
    assert moved > 0
    assert sharded.partitioner.slice(left) == (left_low, cut)
    assert sharded.partitioner.slice(right) == (cut + 1, right_high)
    sharded.sync()
    _probe(sharded, router)
    # Shrinking back also works (the other retarget ordering).
    moved_back = sharded.move_boundary(left, right, left_high)
    assert moved_back > 0
    sharded.sync()
    _probe(sharded, router)


def test_move_boundary_validates_adjacency_and_cut():
    sharded = _fresh(shards=3)
    first, second, third = sharded.partitioner.shards
    with pytest.raises(ValueError, match="not adjacent"):
        sharded.move_boundary(first, third, 50)
    low, high = sharded.partitioner.slice(first)
    with pytest.raises(ValueError, match="outside"):
        sharded.move_boundary(first, second, low - 1)


def test_rebalancer_runs_at_most_one_move_per_tick():
    sharded = _fresh(shards=2)
    now = sharded.clock.now()
    sharded.rebalancer.schedule_add_shard("shard2", at=now)
    sharded.rebalancer.schedule_add_shard("shard3", at=now)
    assert sharded.rebalancer.pending == 2
    counters = sharded.tick(0.01)
    assert counters["rebalance_moves"] == 1
    assert sharded.rebalancer.pending == 1
    assert len(sharded.shards) == 3
    sharded.tick(0.01)
    assert sharded.rebalancer.pending == 0
    assert len(sharded.shards) == 4
    assert sharded.rebalancer.moves_executed == 2
    sharded.sync()
    _probe(sharded, sharded.router())


def test_rebalancer_drops_failing_move_without_wedging():
    sharded = _fresh(shards=2)
    now = sharded.clock.now()
    sharded.rebalancer.schedule_boundary_move("shard0", "nonexistent", 10, at=now)
    sharded.rebalancer.schedule_add_shard("shard2", at=now)
    assert sharded.tick(0.01)["rebalance_moves"] == 0
    assert isinstance(sharded.rebalancer.last_error, ValueError)
    # The queue is not wedged: the next tick runs the good move.
    assert sharded.tick(0.01)["rebalance_moves"] == 1
    assert "shard2" in sharded.shards


def test_future_moves_wait_for_their_time():
    sharded = _fresh(shards=2)
    sharded.rebalancer.schedule_add_shard("shard2", at=sharded.clock.now() + 60.0)
    assert sharded.tick(0.01)["rebalance_moves"] == 0
    assert "shard2" not in sharded.shards
    assert sharded.tick(120.0)["rebalance_moves"] == 1
    assert "shard2" in sharded.shards
