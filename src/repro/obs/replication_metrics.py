"""Replication observability: per-subscription lag gauges and batch stats.

The paper's Experiment 3 measures replication latency; these gauges make
the same quantities continuously visible instead of post-hoc:

* ``replication.lag_transactions{subscription=...}`` — how many committed
  transactions the subscription still has to consume (the commit-sequence
  delta between the distribution database's frontier and the
  subscription's watermark; the repro's analogue of a commit-LSN delta).
* ``replication.lag_seconds{subscription=...}`` — the age of the cached
  data: now minus the newest point the subscription is known current as
  of (same formula the freshness clause uses).
* ``replication.batch_size{subscription=...}`` — histogram of transactions
  applied per subscriber round trip (the agent-batching win from PR 1).
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
#: Replication lag age in seconds (sub-second to tens of seconds).
LAG_AGE_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)


def registry_for_subscription(subscription) -> Optional[Any]:
    """The subscriber server's metrics registry (None for a database no
    server owns)."""
    server = getattr(subscription.subscriber_database, "owner_server", None)
    return getattr(server, "metrics", None)


def _lag_values(agent, now: float) -> Dict[str, float]:
    subscription = agent.subscription
    frontier = agent.distributor.distribution_db.last_sequence
    synced = getattr(subscription, "synced_through", 0.0)
    current_as_of = max(subscription.last_applied_commit_ts, synced)
    return {
        "lag_transactions": max(0, frontier - subscription.last_sequence),
        "lag_seconds": max(0.0, now - current_as_of),
        "queue_depth": len(agent.distributor.distribution_db),
    }


def update_lag_gauges(agent, now: Optional[float] = None, registry=None) -> Dict[str, float]:
    """Refresh one agent's lag gauges; returns the sampled values."""
    subscription = agent.subscription
    if now is None:
        now = subscription.subscriber_database.clock.now()
    values = _lag_values(agent, now)
    if registry is None:
        registry = registry_for_subscription(subscription)
    if registry is not None:
        labels = {"subscription": subscription.name}
        registry.gauge("replication.lag_transactions", labels=labels).set(
            values["lag_transactions"]
        )
        registry.gauge("replication.lag_seconds", labels=labels).set(
            values["lag_seconds"]
        )
        registry.gauge("replication.distribution_queue_depth").set(
            values["queue_depth"]
        )
    return values


def record_batch(agent, batch_size: int, now: Optional[float] = None) -> None:
    """Record one applied batch on the subscriber's registry.

    Called by :class:`~repro.replication.agent.DistributionAgent` after a
    poll applies ``batch_size`` transactions in one round trip.
    """
    registry = registry_for_subscription(agent.subscription)
    if registry is None:
        return
    labels = {"subscription": agent.subscription.name}
    registry.histogram(
        "replication.batch_size", buckets=BATCH_SIZE_BUCKETS, labels=labels
    ).observe(batch_size)
    registry.counter("replication.transactions_applied", labels=labels).inc(batch_size)
    registry.counter("replication.round_trips", labels=labels).inc()
    update_lag_gauges(agent, now=now, registry=registry)


def sample(deployment) -> Dict[str, Dict[str, float]]:
    """Refresh and return lag for every agent of a deployment.

    Keys are subscription names; values the sampled lag dicts. Use this
    for on-demand reads (snapshots, the CLI) — between agent polls the
    ``lag_seconds`` gauge ages and this recomputes it.
    """
    samples: Dict[str, Dict[str, float]] = {}
    now = deployment.clock.now()
    for agent in deployment.distributor.agents:
        samples[agent.subscription.name] = update_lag_gauges(agent, now=now)
    return samples


def rollup(
    deployment, samples: Optional[Dict[str, Dict[str, float]]] = None, registry=None
) -> Dict[str, Any]:
    """Aggregate per-subscription lag across the whole cache tier.

    With one cache the per-subscription gauges are the whole story; a
    sharded tier has ``shards x views`` subscriptions and the question
    becomes "which shard is behind, and how far is the worst one?". This
    groups subscriptions by subscriber server and publishes tier-wide
    ``replication.tier_lag_*`` (max and mean) plus per-server
    ``replication.server_lag_seconds_max{server=...}`` gauges on the
    *publisher's* registry — the one place that sees every shard.
    """
    if samples is None:
        samples = sample(deployment)
    per_server: Dict[str, Dict[str, float]] = {}
    for agent in deployment.distributor.agents:
        values = samples.get(agent.subscription.name)
        if values is None:
            continue
        server = getattr(
            agent.subscription.subscriber_database, "owner_server", None
        )
        bucket = per_server.setdefault(
            getattr(server, "name", "unknown"),
            {"lag_seconds_max": 0.0, "lag_transactions_max": 0, "subscriptions": 0},
        )
        bucket["lag_seconds_max"] = max(
            bucket["lag_seconds_max"], values["lag_seconds"]
        )
        bucket["lag_transactions_max"] = max(
            bucket["lag_transactions_max"], values["lag_transactions"]
        )
        bucket["subscriptions"] += 1
    seconds = [values["lag_seconds"] for values in samples.values()]
    transactions = [values["lag_transactions"] for values in samples.values()]
    summary: Dict[str, Any] = {
        "lag_seconds_max": max(seconds, default=0.0),
        "lag_seconds_mean": sum(seconds) / len(seconds) if seconds else 0.0,
        "lag_transactions_max": max(transactions, default=0),
        "lag_transactions_mean": (
            sum(transactions) / len(transactions) if transactions else 0.0
        ),
        "servers": per_server,
    }
    if registry is None:
        registry = getattr(getattr(deployment, "backend", None), "metrics", None)
    if registry is not None:
        registry.gauge("replication.tier_lag_seconds_max").set(
            summary["lag_seconds_max"]
        )
        registry.gauge("replication.tier_lag_seconds_mean").set(
            summary["lag_seconds_mean"]
        )
        registry.gauge("replication.tier_lag_transactions_max").set(
            summary["lag_transactions_max"]
        )
        for server_name, bucket in per_server.items():
            registry.gauge(
                "replication.server_lag_seconds_max", labels={"server": server_name}
            ).set(bucket["lag_seconds_max"])
    return summary
