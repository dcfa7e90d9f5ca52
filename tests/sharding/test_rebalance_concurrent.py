"""ShardRouter under concurrent rebalancing: boundary moves mid-traffic.

Worker threads hammer single-key procedure calls through ONE shared
:class:`ShardRouter` while the main thread repeatedly moves the
partition boundary between the two shards. Every response is compared
against the backend's answer — a stale ownership guess mid-move must
degrade to the guarded-plan backend fetch, never to a wrong row — and
the shard hit/miss counters must account for every routed request
exactly. The whole test runs under the suite-wide lock witness, so any
ordering violation between the router's mutex, the partitioner's rmutex
and the engine locks fails the session gate.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.analysis.shardlint import check_partitioner
from repro.client.connection import connect
from repro.sharding import ShardedDeployment
from repro.tpcw import TPCWConfig

pytestmark = [pytest.mark.shard, pytest.mark.concurrency]

WORKERS = 4
#: Item ids probed by the workers, spread across the whole key domain so
#: every boundary move strands some of them on the "wrong" shard.
ITEMS = tuple(range(1, 101, 3))


@pytest.fixture(autouse=True)
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    yield
    sys.setswitchinterval(old)


def _await(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for traffic"
        time.sleep(0.005)


def test_boundary_moves_mid_traffic_stay_exact():
    sharded = ShardedDeployment(
        config=TPCWConfig(num_items=100, num_ebs=4, seed=29), shards=2
    )
    router = sharded.router()
    backend = connect(sharded.backend, database=sharded.database_name)
    expected = {
        item: backend.cursor().execute("EXEC getBook @i_id = @i_id", {"i_id": item}).result.rows
        for item in ITEMS
    }
    stock = {
        item: backend.cursor().execute("EXEC getStock @i_id = @i_id", {"i_id": item}).result.rows
        for item in ITEMS
    }

    barrier = threading.Barrier(WORKERS + 1)
    stop = threading.Event()
    failures = []
    counts = [0] * WORKERS

    def hammer(index: int) -> None:
        try:
            barrier.wait(timeout=10.0)
            mine = ITEMS[index::WORKERS]
            while not stop.is_set():
                for item in mine:
                    rows = router.execute(
                        "EXEC getBook @i_id = @i_id", {"i_id": item}
                    ).rows
                    assert rows == expected[item], f"getBook({item}) diverged"
                    rows = router.execute(
                        "EXEC getStock @i_id = @i_id", {"i_id": item}
                    ).rows
                    assert rows == stock[item], f"getStock({item}) diverged"
                    counts[index] += 2
        except BaseException as exc:  # pragma: no cover - only on regression
            failures.append(exc)
            stop.set()

    threads = [
        threading.Thread(target=hammer, args=(index,), daemon=True)
        for index in range(WORKERS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=10.0)

    left, right = sharded.partitioner.shards
    original = (sharded.partitioner.slice(left), sharded.partitioner.slice(right))
    issued = 0
    # Each move waits for fresh traffic first, so every cutover happens
    # with requests actually in flight. The deltas sum to zero: the tier
    # ends exactly where it started.
    for delta in (7, -11, 4, -3, 3):
        issued += 20
        _await(lambda: sum(counts) >= issued and not stop.is_set())
        if stop.is_set():
            break
        _, left_high = sharded.partitioner.slice(left)
        moved = sharded.move_boundary(left, right, left_high + delta)
        assert moved > 0
        sharded.sync()
        # The partitioner still tiles the domain after every move.
        assert check_partitioner(sharded.partitioner) == []

    stop.set()
    for thread in threads:
        thread.join(timeout=60.0)
    assert failures == []
    assert (
        sharded.partitioner.slice(left),
        sharded.partitioner.slice(right),
    ) == original

    # Exact accounting: every request the workers issued was answered
    # exactly once, either by the owning shard (hit) or by the backend
    # fallback (miss) — nothing dropped, nothing double-counted.
    total = sum(counts)
    assert total >= issued
    hits = sum(
        sharded.metrics.counter("shard.hits", labels={"shard": shard}).value
        for shard in sharded.partitioner.shards
    )
    misses = sharded.metrics.counter("shard.misses").value
    assert hits + misses == total
    assert hits > 0  # routing did not silently degrade to all-backend

    # Every latch quiesced on both tiers.
    for server in [sharded.backend] + [c.server for c in sharded.shards.values()]:
        for name in server.databases:
            latch = server.database(name).latch
            assert latch.readers == 0
            assert not latch.owns_exclusive()
