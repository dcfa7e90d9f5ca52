"""Real threads through the ShardRouter: pooled TPC-W plus Zipf keys."""

from __future__ import annotations

import random

import pytest

from repro.client import ConnectionPool
from repro.sharding import ShardedDeployment
from repro.tpcw import MIXES, TPCWConfig
from repro.tpcw.driver import ThreadedLoadDriver

pytestmark = [pytest.mark.shard, pytest.mark.concurrency]

WORKERS = 4


def test_threaded_tpcw_through_shard_router_clean():
    sharded = ShardedDeployment(
        config=TPCWConfig(num_items=80, num_ebs=6, seed=37), shards=4
    )
    pool = ConnectionPool(lambda: sharded.connect(), size=WORKERS)
    driver = ThreadedLoadDriver(
        pool,
        TPCWConfig(num_items=80, num_ebs=6, seed=37),
        MIXES["Shopping"],
        workers=WORKERS,
        think_time=0.002,
        deployment=sharded,
        seed=41,
    )
    stats = driver.run(0.5)
    pool.close()

    assert stats.errors == 0, stats.error_samples
    assert stats.interactions > 0
    # Shard traffic actually happened and plans stayed checked everywhere.
    hits = sum(
        sharded.metrics.counter("shard.hits", labels={"shard": name}).value
        for name in sharded.shards
    )
    assert hits > 0
    for cache in sharded.shards.values():
        assert cache.server.checked_plans
    # Every latch quiesced on the backend and all four shards.
    servers = [sharded.backend] + [c.server for c in sharded.shards.values()]
    for server in servers:
        for name in server.databases:
            latch = server.database(name).latch
            assert latch.readers == 0
            assert not latch.owns_exclusive()


def test_zipf_keys_concentrate_on_owning_shards():
    """Zipf-skewed single-key reads: hits land exactly per ownership."""
    sharded = ShardedDeployment(
        config=TPCWConfig(num_items=100, num_ebs=4, seed=43), shards=8
    )
    connection = sharded.connect()
    rng = random.Random(47)
    # Zipf-ish over item ids: low ids run hot.
    keys = [min(100, max(1, int(rng.paretovariate(1.2)))) for _ in range(300)]
    for key in keys:
        rows = connection.cursor().execute("EXEC getStock @i_id = @i_id", {"i_id": key}).result.rows
        assert len(rows) == 1
    expected = sharded.partitioner.ownership(keys)
    for name in sharded.partitioner.shards:
        observed = sharded.metrics.counter(
            "shard.hits", labels={"shard": name}
        ).value
        assert observed == expected[name], (name, observed, expected)
    # Skew is real: the hottest shard dominates the coldest.
    counts = sorted(expected.values())
    assert counts[-1] >= 10 * max(1, counts[0])
