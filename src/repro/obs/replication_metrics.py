"""Replication observability: per-subscriber lag gauges and batch stats.

The paper's Experiment 3 measures replication latency; these gauges make
the same quantities continuously visible instead of post-hoc. A
subscriber is one cache server's shadow database — all of its cached
views share one watermark, so lag has one value per subscriber:

* ``replication.lag_transactions{subscriber=...}`` — how many committed
  transactions the subscriber still has to consume (the commit-sequence
  delta between the distribution database's frontier and the
  subscriber's watermark; the repro's analogue of a commit-LSN delta).
* ``replication.lag_seconds{subscriber=...}`` — the age of the cached
  data: now minus the newest point the subscriber is known current as
  of (same formula the freshness clause uses).
* ``replication.batch_size{subscriber=...}`` — histogram of transactions
  applied per subscriber round trip (the agent-batching win from PR 1).
* ``replication.apply_failures{subscriber=...}`` — polls whose batch hit
  a failing transaction (undone; redelivered by the next poll).
* ``replication.distribution_queue_depth`` — transactions sitting in the
  distribution database, sampled at each agent poll.

Gauges land on the *subscriber* server's registry — the same attribution
the cluster simulator uses for apply CPU — so a cache server's snapshot
tells the whole story of its own staleness.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

#: Transactions applied in one subscriber round trip.
BATCH_SIZE_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250)


def _registry(agent):
    """The subscriber server's metrics registry."""
    return agent.subscriber.database.owner_server.metrics


def _labels(agent) -> Dict[str, str]:
    return {"subscriber": agent.subscriber.name}


def update_lag_gauges(agent, now: Optional[float] = None) -> Dict[str, float]:
    """Refresh one agent's lag gauges; returns the sampled values."""
    subscriber = agent.subscriber
    if now is None:
        now = subscriber.database.clock.now()
    distribution_db = agent.distributor.distribution_db
    values = {
        "lag_transactions": distribution_db.last_sequence - subscriber.last_sequence,
        "lag_seconds": subscriber.staleness(now),
        "queue_depth": len(distribution_db),
    }
    registry = _registry(agent)
    labels = _labels(agent)
    registry.gauge("replication.lag_transactions", labels=labels).set(
        values["lag_transactions"]
    )
    registry.gauge("replication.lag_seconds", labels=labels).set(values["lag_seconds"])
    registry.gauge("replication.distribution_queue_depth").set(values["queue_depth"])
    return values


def record_batch(agent, batch_size: int, now: Optional[float] = None) -> None:
    """Record one applied batch on the subscriber's registry.

    Called by :class:`~repro.replication.agent.DistributionAgent` after a
    poll applies ``batch_size`` transactions in one round trip.
    """
    registry = _registry(agent)
    labels = _labels(agent)
    registry.histogram(
        "replication.batch_size", buckets=BATCH_SIZE_BUCKETS, labels=labels
    ).observe(batch_size)
    registry.counter("replication.transactions_applied", labels=labels).inc(batch_size)
    registry.counter("replication.round_trips", labels=labels).inc()
    update_lag_gauges(agent, now=now)


def record_apply_failure(agent, now: Optional[float] = None) -> None:
    """Count a poll that failed partway through its batch."""
    _registry(agent).counter("replication.apply_failures", labels=_labels(agent)).inc()
    update_lag_gauges(agent, now=now)


def sample(deployment) -> Dict[str, Dict[str, float]]:
    """Refresh and return lag for every agent of a deployment.

    Keys are subscriber names; values the sampled lag dicts. Use this
    for on-demand reads (snapshots, the CLI) — between agent polls the
    ``lag_seconds`` gauge ages and this recomputes it.
    """
    now = deployment.clock.now()
    return {
        agent.subscriber.name: update_lag_gauges(agent, now=now)
        for agent in deployment.distributor.agents
    }


def rollup(
    deployment, samples: Optional[Dict[str, Dict[str, float]]] = None
) -> Dict[str, Any]:
    """Aggregate per-subscriber lag across the whole cache tier.

    With one cache the per-subscriber gauges are the whole story; on a
    sharded tier the question becomes "which shard is behind, and how
    far is the worst one?". Publishes tier-wide ``replication.tier_lag_*``
    (max and mean) plus ``replication.subscriber_lag_seconds{subscriber=...}``
    gauges on the *publisher's* registry — the one place that sees every
    shard.
    """
    if samples is None:
        samples = sample(deployment)
    seconds = [values["lag_seconds"] for values in samples.values()]
    transactions = [values["lag_transactions"] for values in samples.values()]
    summary: Dict[str, Any] = {
        "lag_seconds_max": max(seconds, default=0.0),
        "lag_seconds_mean": sum(seconds) / len(seconds) if seconds else 0.0,
        "lag_transactions_max": max(transactions, default=0),
        "lag_transactions_mean": (
            sum(transactions) / len(transactions) if transactions else 0.0
        ),
    }
    registry = deployment.backend.metrics
    registry.gauge("replication.tier_lag_seconds_max").set(summary["lag_seconds_max"])
    registry.gauge("replication.tier_lag_seconds_mean").set(summary["lag_seconds_mean"])
    registry.gauge("replication.tier_lag_transactions_max").set(
        summary["lag_transactions_max"]
    )
    for name, values in samples.items():
        registry.gauge(
            "replication.subscriber_lag_seconds", labels={"subscriber": name}
        ).set(values["lag_seconds"])
    return summary
