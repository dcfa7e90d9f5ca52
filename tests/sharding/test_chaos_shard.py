"""Chaos: kill one shard mid-TPC-W; the tier degrades, nothing fails.

The acceptance scenario for the partitioned tier: a LoadDriver runs the
Shopping mix through the ShardRouter while a FaultInjector crashes one
shard and later restarts it. Every interaction must complete (zero
errors): the dead shard's key traffic fails over to the backend through
its per-shard FailoverRouter, scatter slices for the dead shard run on
the backend, and after restart + probe the shard serves locally again.
"""

from __future__ import annotations

import pytest

from repro.client.connection import connect
from repro.faults import FaultInjector
from repro.sharding import ShardedDeployment
from repro.tpcw import MIXES, TPCWApplication, TPCWConfig
from repro.tpcw.driver import LoadDriver

pytestmark = [pytest.mark.shard, pytest.mark.chaos]

CONFIG = dict(num_items=100, num_ebs=6, seed=31)


def test_kill_one_shard_mid_run_zero_failed_interactions():
    sharded = ShardedDeployment(config=TPCWConfig(**CONFIG), shards=4)
    injector = FaultInjector(sharded.clock, seed=5)
    sharded.attach_fault_injector(injector)
    victim = sharded.shard("shard1")
    injector.at(4.0, "crash_cache", victim)
    injector.at(10.0, "restart_cache", victim)

    config = TPCWConfig(**CONFIG)
    connection = sharded.connect()
    application = TPCWApplication(connection, config)
    driver = LoadDriver(
        application,
        MIXES["Shopping"],
        users=8,
        think_time=0.5,
        deployment=sharded,
        seed=23,
    )
    stats = driver.run(duration=16.0)

    assert stats.errors == 0, stats.error_samples
    assert stats.interactions > 100
    assert victim.server.available
    # The outage actually bit: at least one per-shard router failed over.
    router = connection.target
    assert router.failovers >= 1
    assert injector.injected >= 1

    # Post-restart, replication converges and the victim serves its slice.
    sharded.sync()
    low, _ = sharded.partitioner.slice("shard1")
    backend = connect(sharded.backend, database=sharded.database_name)
    expected = backend.cursor().execute("EXEC getBook @i_id = @i_id", {"i_id": low}).result.rows
    actual = connection.cursor().execute("EXEC getBook @i_id = @i_id", {"i_id": low}).result.rows
    assert actual == expected


def test_dead_shard_scatter_results_stay_exact():
    sharded = ShardedDeployment(config=TPCWConfig(**CONFIG), shards=4)
    injector = FaultInjector(sharded.clock, seed=6)
    sharded.attach_fault_injector(injector)
    connection = sharded.connect()
    backend = connect(sharded.backend, database=sharded.database_name)

    expected = backend.cursor().execute(
        "EXEC doSubjectSearch @subject = @subject", {"subject": "HISTORY"}
    ).result.rows
    injector.crash_cache(sharded.shard("shard2"))
    # The dead shard's slice is served by its failover route; results are
    # still exactly the backend's.
    actual = connection.cursor().execute(
        "EXEC doSubjectSearch @subject = @subject", {"subject": "HISTORY"}
    ).result.rows
    assert actual == expected
    injector.restart_cache(sharded.shard("shard2"))
