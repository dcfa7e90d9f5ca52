"""PR 7 — partitioned cache tier scale-out vs the single-cache baseline.

Two gates for the sharded tier:

* **Modeled capacity** (DES, the Figure 6 procedure at sizes the paper
  never reached): saturated read-dominated WIPS at 8 shards must be at
  least 2x one cache server. The flat tier replicates every article to
  every cache, so each server pays the full apply cost; the sharded tier
  divides it, and throughput keeps the linear shape out to 8+.
* **Measured locality** (real executions): single-key reads through the
  ShardRouter must all be served by shards — zero extra statements reach
  the backend — and return row-for-row what the backend returns. That
  per-statement independence is the mechanism the modeled scale-out
  rests on, so the bench measures it directly rather than assuming it.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit
from repro.client.connection import connect
from repro.sharding import ShardedDeployment
from repro.simulation import DESConfig, simulate_cluster
from repro.tpcw import TPCWConfig, build_backend, enable_caching

#: Real-execution scale (smaller than BENCH_CONFIG: eight shards to build).
SHARD_CONFIG = dict(num_items=200, num_ebs=8, seed=61)
READ_KEYS = tuple(range(1, 201, 2))


def test_bench_shard_scaleout_modeled_throughput(cal_cached, benchmark, capsys, bench_recorder):
    points = []
    for servers in (1, 2, 4, 8):
        result = simulate_cluster(
            cal_cached,
            DESConfig(
                users=300 * servers,
                mix_name="Browsing",
                servers=servers,
                duration=40,
                warmup=8,
                sharded=servers > 1,
            ),
        )
        points.append((servers, result))

    lines = [f"{'shards':>8s} {'WIPS':>9s} {'web util':>9s} {'backend':>9s}"]
    for servers, result in points:
        lines.append(
            f"{servers:8d} {result.wips:9.1f} {result.web_utilization:9.1%} "
            f"{result.backend_utilization:9.1%}"
        )
    wips = {servers: result.wips for servers, result in points}
    speedup = wips[8] / wips[1]
    lines.append(f"8-shard speedup over 1 cache: {speedup:.2f}x  (gate: >= 2.0x)")
    emit(capsys, "PR7: sharded tier scale-out (Browsing, saturated)", lines)

    bench_recorder.record(
        "shard_scaleout",
        **{f"wips_{servers}": round(value, 1) for servers, value in wips.items()},
        speedup_8_vs_1=round(speedup, 2),
    )
    assert speedup >= 2.0, (
        f"8 shards must deliver at least 2x one cache server, got {speedup:.2f}x"
    )
    # The shape stays near-linear, not merely above the 2x floor.
    assert wips[8] / wips[4] > 1.5

    benchmark.pedantic(
        lambda: simulate_cluster(
            cal_cached,
            DESConfig(
                users=300, mix_name="Browsing", servers=1, duration=20, warmup=5
            ),
        ),
        rounds=1,
        iterations=1,
    )


def test_bench_shard_router_locality_and_identity(capsys, bench_recorder):
    sharded = ShardedDeployment(config=TPCWConfig(**SHARD_CONFIG), shards=8)
    router_cursor = sharded.connect().cursor()
    backend_direct = connect(sharded.backend, database=sharded.database_name).cursor()

    flat_backend, flat_config = build_backend(TPCWConfig(**SHARD_CONFIG))
    _, caches = enable_caching(flat_backend, ["cache1"], flat_config)
    cache_cursor = connect(caches[0], database="tpcw").cursor()

    sql = "EXEC getBook @i_id = @i_id"
    for key in READ_KEYS[:5]:  # warm plans on every shard and the cache
        router_cursor.execute(sql, {"i_id": key})
        cache_cursor.execute(sql, {"i_id": key})

    for key in READ_KEYS:
        sharded_rows = router_cursor.execute(sql, {"i_id": key}).fetchall()
        expected = backend_direct.execute(sql, {"i_id": key}).fetchall()
        assert sharded_rows == expected, f"item {key} diverged through the router"

    # Measured pass: routed reads only, so any backend statement at all
    # is a leak (a shard failing to serve its own key locally).
    backend_statements_before = sharded.backend.statements_executed
    started = time.perf_counter()
    for key in READ_KEYS:
        router_cursor.execute(sql, {"i_id": key})
    routed_seconds = time.perf_counter() - started
    backend_extra = sharded.backend.statements_executed - backend_statements_before

    started = time.perf_counter()
    for key in READ_KEYS:
        cache_cursor.execute(sql, {"i_id": key})
    single_cache_seconds = time.perf_counter() - started

    hits = sum(
        sharded.metrics.counter("shard.hits", labels={"shard": name}).value
        for name in sharded.shards
    )
    routed_per_second = len(READ_KEYS) / routed_seconds
    emit(
        capsys,
        "PR7: single-key read locality through the ShardRouter",
        [
            f"routed reads          {len(READ_KEYS):6d}",
            f"shard-served          {hits:6d}",
            f"extra backend stmts   {backend_extra:6d}  (gate: 0)",
            f"router     {routed_per_second:10.0f} reads/s",
            f"one cache  {len(READ_KEYS) / single_cache_seconds:10.0f} reads/s",
        ],
    )
    bench_recorder.record(
        "shard_router_locality",
        routed_reads=len(READ_KEYS),
        extra_backend_statements=backend_extra,
        router_reads_per_second=round(routed_per_second, 0),
        single_cache_reads_per_second=round(len(READ_KEYS) / single_cache_seconds, 0),
    )
    assert backend_extra == 0, (
        f"{backend_extra} single-key reads leaked to the backend; "
        "shard slices must serve their own keys"
    )
    assert hits >= len(READ_KEYS)
