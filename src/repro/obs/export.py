"""Snapshot/export API: everything observable, as JSON-ready dicts.

``server_snapshot`` covers one server (metrics registry, statement-cache
counters, prepared-handle population); ``deployment_snapshot`` covers a
whole MTCache deployment (backend + every cache + replication lag per
subscriber + distribution queue depth). ``to_json`` serializes either.

The ``python -m repro metrics`` CLI subcommand prints a deployment
snapshot after driving a short TPC-W workload; benchmarks embed snapshots
in their reports so a regression in, say, parse-cache hit rate is visible
next to the throughput number it explains.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.obs import replication_metrics


def server_snapshot(server) -> Dict[str, Any]:
    """One server's observable state."""
    return {
        "server": server.name,
        "statements_executed": server.statements_executed,
        "statement_cache": server.statement_cache_stats(),
        "metrics": server.metrics.snapshot(),
    }


def witness_snapshot() -> Optional[Dict[str, Any]]:
    """The lock witness's observed acquisition graph, or None when off.

    Process-wide rather than per-server: lock classes are keyed by
    creation site, so one graph covers every tier the process hosts
    (which is exactly what the cross-server edges need).
    """
    from repro.common.witness import active_witness

    witness = active_witness()
    if witness is None:
        return None
    return witness.snapshot()


def deployment_snapshot(deployment) -> Dict[str, Any]:
    """A whole deployment: backend, caches, and replication lag."""
    subscribers = replication_metrics.sample(deployment)
    witness = witness_snapshot()
    if witness is not None:
        witness = {
            "acquisitions": witness["acquisitions"],
            "classes": len(witness["classes"]),
            "edges": len(witness["edges"]),
            "violations": witness["violations"],
        }
    return {
        "lock_witness": witness,
        "backend": server_snapshot(deployment.backend),
        "caches": [
            {
                "statements_forwarded": cache.statements_forwarded,
                "staleness_seconds": cache.staleness(),
                **server_snapshot(cache.server),
            }
            for cache in deployment.cache_servers
        ],
        "replication": {
            "distribution_queue_depth": len(deployment.distributor.distribution_db),
            "transactions_distributed": deployment.log_reader.transactions_distributed,
            "commands_produced": deployment.log_reader.commands_produced,
            "average_latency_seconds": deployment.average_replication_latency(),
            "subscribers": subscribers,
            "lag_rollup": replication_metrics.rollup(deployment, samples=subscribers),
        },
    }


def to_json(snapshot: Dict[str, Any], indent: int = 2) -> str:
    """Serialize a snapshot (tolerating stray non-JSON values)."""
    return json.dumps(snapshot, indent=indent, sort_keys=True, default=str)
