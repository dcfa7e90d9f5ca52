"""One repetition of one workload, in a fresh interpreter.

``python -m benchmarks.harness.child '<json request>'`` (also the way the
probes and the CLI smoke get their own interpreter) builds the workload's
deployment, warms it, runs the timed loop (optionally with the
span recorder installed), runs the correctness gate, and prints one JSON
object as the last line of its output. A fresh interpreter per repetition
means identical starting state every time (no leaked registries, interned
strings or LIKE memo), which is also what makes ``rss_mb`` attributable.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from typing import Any, Dict, List, Optional

from benchmarks.harness import calib, spans
from benchmarks.harness.loop import timed_loop, timed_metrics
from benchmarks.harness.stats import median, percentile


def _counters(rig: Any) -> Dict[str, float]:
    """Every count the per-layer metrics are differences of."""
    from repro.obs.metrics import global_registry

    servers = [rig.backend] + [cache.server for cache in rig.caches]
    counts: Dict[str, float] = {
        "backend_rows": rig.backend.total_work.rows_processed,
        "rows": sum(server.total_work.rows_processed for server in servers),
        "index_seeks": sum(server.total_work.index_seeks for server in servers),
        "statements": sum(server.statements_executed for server in servers),
        "transactions": rig.replication.log_reader.transactions_distributed,
        "agent_round_trips": sum(
            agent.round_trips for agent in rig.replication.distributor.agents
        ),
    }
    counts["plans"] = sum(
        server.statement_cache_stats()["plan_cache"]["misses"] for server in servers
    )
    cache_stats = [cache.server.statement_cache_stats() for cache in rig.caches]
    for cache_name in ("parse_cache", "plan_cache"):
        for field in ("hits", "misses", "evictions"):
            counts[f"{cache_name}_{field}"] = sum(
                stats[cache_name][field] for stats in cache_stats
            )
    links = [
        cache.server.linked_servers.get(name)
        for cache in rig.caches
        for name in cache.server.linked_servers.names()
    ]
    counts["remote_calls"] = sum(
        link.queries_shipped + link.statements_shipped for link in links
    )
    counts["prepared_calls"] = sum(link.prepared_executions for link in links)
    registry = global_registry()
    counts["net_roundtrips"] = registry.counter("net.client.roundtrips").value
    counts["net_bytes"] = (
        registry.counter("net.client.bytes_out").value
        + registry.counter("net.client.bytes_in").value
    )
    shard_metrics = getattr(rig.tier, "metrics", None)
    counts["shard_hops"] = shard_metrics.counter("shard.fanout").value if shard_metrics else 0
    counts["shard_backend"] = shard_metrics.counter("shard.misses").value if shard_metrics else 0
    return counts


def _gate(rig: Any, seed: int) -> Dict[str, Any]:
    """The correctness gate (README, "Correctness").

    After draining replication, every cached view must hold exactly the
    rows its defining SELECT returns on the backend, and a fixed sample of
    reads must return the same rows through the workload's connection as
    on a direct backend connection.
    """
    from repro.client import connect
    from repro.sql.formatter import format_statement

    problems: List[str] = []
    checks = 0
    rig.tier.sync()
    for cache in rig.caches:
        for view_name in cache.subscriptions:
            checks += 1
            definition = cache.database.catalog.get_view(view_name).select
            expected = rig.backend.execute(
                format_statement(definition), database=rig.database_name
            ).rows
            held = [row for _, row in cache.database.storage_table(view_name).scan()]
            if sorted(map(repr, held)) != sorted(map(repr, expected)):
                problems.append(
                    f"{cache.name}.{view_name}: holds {len(held)} rows, "
                    f"defining SELECT returns {len(expected)}"
                )
    direct = connect(rig.backend, database=rig.database_name)
    try:
        for sql, params in rig.identity_reads(random.Random(seed)):
            checks += 1
            through = rig.connection.cursor().execute(sql, params).fetchall()
            reference = direct.cursor().execute(sql, params).fetchall()
            if [tuple(row) for row in through] != [tuple(row) for row in reference]:
                problems.append(f"{sql} {params}: rows differ from the backend's")
    finally:
        direct.close()
    return {"checks": checks, "problems": problems}


class _PhasedTimer:
    """Set-up time, calibrated phase by phase: each ``phase_done`` scales
    the seconds since the previous one by the slices on either side."""

    def __init__(self, calibration: calib.Slice):
        self.calibration = calibration
        self.seconds = self.raw_seconds = 0.0
        self._slice = calibration.ms()
        self._started = time.perf_counter()

    def phase_done(self) -> None:
        elapsed = time.perf_counter() - self._started
        after = self.calibration.ms()
        self.raw_seconds += elapsed
        self.seconds += elapsed * calib.scale(self._slice, after)
        self._slice = after
        self._started = time.perf_counter()


def _percentile_or_none(samples: List[float], pct: float) -> Optional[float]:
    try:
        return percentile(samples, pct) * 1000.0
    except ValueError:
        return None


def run_repetition(request: Dict[str, Any]) -> Dict[str, Any]:
    started = time.perf_counter()
    calibration = calib.Slice()
    setup = _PhasedTimer(calibration)

    from benchmarks.harness.workloads import TICK_ADVANCE, TICK_EVERY, WORKLOADS

    setup.phase_done()  # imports
    name = request["workload"]
    seed, ops, traced = int(request["seed"]), int(request["ops"]), bool(request["traced"])
    rig = WORKLOADS[name](name, seed, ops)
    try:
        setup.phase_done()  # build, provision, connect
        rig.warm_up()
        setup.phase_done()

        recorder = spans.SpanRecorder() if traced else None
        run_op = rig.run
        if recorder is not None:
            recorder.install()
            run_op = recorder.as_trace(rig.run)

        before = _counters(rig)
        try:
            loop = timed_loop(
                run_op,
                ops,
                lambda: rig.tier.tick(TICK_ADVANCE),
                tick_every=TICK_EVERY,
                slice_ms=calibration.ms,
            )
        finally:
            if recorder is not None:
                recorder.uninstall()
        after = _counters(rig)
        delta = {name: after[name] - before[name] for name in after}
        gate = _gate(rig, seed)
    finally:
        rig.close()

    writes = [rig.writes(index) for index in range(ops)]
    problems = [f"op {index}: {text}" for index, text in loop.failures] + gate["problems"]
    metrics = timed_metrics(loop.latencies, loop.chunk_seconds, writes)
    metrics.update(
        setup_s=setup.seconds,
        backend_rows_per_op=delta["backend_rows"] / ops,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "ops": ops,
        "traced": traced,
        "attempted": ops + gate["checks"],
        "failed": len(problems),
        "problems": problems[:10],
        "metrics": metrics,
        # Per operation and per chunk, for the median over repetitions.
        "latencies": loop.latencies,
        "chunk_seconds": loop.chunk_seconds,
        "writes": writes,
        "raw": {
            "timed_s": loop.raw_seconds,
            "child_s": time.perf_counter() - started,
            "setup_s": setup.raw_seconds,
            "ops_s": ops / loop.raw_seconds,
            "lat_p50_ms": median(loop.raw_latencies) * 1000.0,
            "lat_p95_ms": _percentile_or_none(loop.raw_latencies, 95),
            "lat_p99_ms": _percentile_or_none(loop.raw_latencies, 99),
            "samples": {"all": ops, "read": ops - sum(writes), "write": sum(writes)},
            "slice_ms": {"min": min(loop.slices_ms), "max": max(loop.slices_ms)},
        },
    }
    if recorder is not None:
        recorder.check_expected(name)
        result["layers"] = _layer_metrics(
            spans.budget(recorder.spans), delta, loop, ops, shards=len(rig.caches)
        )
        result["calls"] = dict(sorted(recorder.calls().items()))
    return result


def _layer_metrics(
    budget, delta: Dict[str, float], loop, ops: int, shards: int
) -> Dict[str, float]:
    """The traced and counted per-layer metrics of one repetition.

    A scatter statement makes one hop to each of the ``shards`` shards.
    """
    to_calibrated_us = loop.seconds / loop.raw_seconds * 1e6 / ops

    def self_us(layer: str) -> float:
        return budget.self_seconds.get(layer, 0.0) * to_calibrated_us

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    routed = budget.span_counts.get("shard_router", 0)
    transactions = delta["transactions"]
    return {
        "client.self_us_per_op": self_us("client"),
        "client.pool_us_per_op": self_us("client.pool"),
        "shard_router.self_us_per_op": self_us("shard_router"),
        "shard_router.scatter_share": ratio(delta["shard_hops"] / shards, routed),
        "shard_router.backend_share": ratio(delta["shard_backend"], routed),
        "resilience.self_us_per_op": self_us("resilience"),
        "net.self_us_per_op": self_us("net"),
        "net.roundtrips_per_op": delta["net_roundtrips"] / ops,
        "net.bytes_per_op": delta["net_bytes"] / ops,
        "mtcache.self_us_per_op": self_us("mtcache"),
        "mtcache.local_stmt_share": ratio(budget.local_statements, budget.mtcache_statements),
        "engine.cache_self_us_per_op": self_us("engine.cache"),
        "engine.backend_self_us_per_op": self_us("engine.backend"),
        "engine.stmts_per_op": delta["statements"] / ops,
        "engine.parse_cache_hit_rate": ratio(
            delta["parse_cache_hits"], delta["parse_cache_hits"] + delta["parse_cache_misses"]
        ),
        "engine.plan_cache_hit_rate": ratio(
            delta["plan_cache_hits"], delta["plan_cache_hits"] + delta["plan_cache_misses"]
        ),
        "engine.plan_cache_evictions_per_kop": delta["plan_cache_evictions"] * 1000.0 / ops,
        "optimizer.self_us_per_op": self_us("optimizer"),
        "optimizer.plans_per_kop": delta["plans"] * 1000.0 / ops,
        "exec.self_us_per_op": self_us("exec"),
        "exec.rows_per_op": delta["rows"] / ops,
        "exec.index_seeks_per_op": delta["index_seeks"] / ops,
        "distributed.self_us_per_op": self_us("distributed"),
        "distributed.remote_calls_per_op": delta["remote_calls"] / ops,
        "distributed.prepared_share": ratio(delta["prepared_calls"], delta["remote_calls"]),
        "replication.self_us_per_op": self_us("replication"),
        "replication.apply_us_per_txn": ratio(self_us("replication") * ops, transactions),
        "replication.txns_per_op": transactions / ops,
        "replication.round_trips_per_kop": delta["agent_round_trips"] * 1000.0 / ops,
        "harness.app_us_per_op": self_us(spans.APP_LAYER),
        "harness.untraced_us_per_op": (loop.raw_seconds - budget.root_seconds)
        * to_calibrated_us,
        "harness.traced_wall_us_per_op": loop.seconds * 1e6 / ops,
    }


def pin_to_one_cpu() -> None:
    """Keep every thread of this child on one CPU.

    Under the GIL only one thread runs at a time anyway, and on a small VM
    a wake-up that crosses virtual CPUs is slow and unevenly so: unpinned,
    identical ``shop_tcp`` repetitions fell into two modes (about 500 and
    700 ops/s) by where the scheduler happened to put the server threads.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv: List[str]) -> int:
    request = json.loads(argv[0])
    pin_to_one_cpu()
    if request.get("probes"):
        from benchmarks.harness.probes import run_probes

        result = run_probes()
    elif request.get("smoke"):
        from benchmarks.harness.smoke import serve_smoke

        result = serve_smoke(int(request["seed"]))
    else:
        result = run_repetition(request)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
