"""Distribution agents: periodic push of pending transactions.

One agent serves one subscriber — a cache server's shadow database with
all of its cached views. It wakes up on its polling interval, reads the
distribution database once past the subscriber's watermark and applies
complete transactions in commit order (§2.2), each atomically across
every view it touches. The agent is driven by virtual time:
``run_due(now)`` fires only when the poll interval has elapsed, which is
what gives replication its characteristic sub-second-to-seconds latency
in the paper's Experiment 3.

Each poll batches *all* pending transactions into one subscriber round
trip (commit order preserved) and applies them through the subscriptions'
prepared appliers, so a burst of N backend commits costs one trip plus N
lightweight applies instead of N full trips — the replication leg of the
statement fast path.

The agent is the process, not the position: the watermark lives on the
:class:`~repro.replication.subscription.Subscriber`, so a killed agent's
replacement resumes exactly where the old one stopped.
"""

from __future__ import annotations

from typing import Optional

from repro.obs import replication_metrics
from repro.replication.distributor import Distributor
from repro.replication.subscription import Subscriber


class DistributionAgent:
    """The push agent serving one subscriber."""

    def __init__(
        self,
        subscriber: Subscriber,
        distributor: Distributor,
        poll_interval: float = 0.25,
    ):
        self.subscriber = subscriber
        self.distributor = distributor
        self.poll_interval = poll_interval
        self.last_poll_time: float = float("-inf")
        self.transactions_applied = 0
        self.commands_applied = 0
        # Round trips actually made vs. avoided by batching: a poll that
        # applies N pending transactions in one trip saves N - 1.
        self.round_trips = 0
        self.round_trips_saved = 0
        # A stalled agent (fault injection, admin) skips applying but
        # keeps its schedule; the watermark makes the next poll
        # re-deliver the unapplied suffix.
        self.stalled = False

    def stall(self) -> None:
        self.stalled = True

    def resume(self) -> None:
        self.stalled = False

    def due(self, now: float) -> bool:
        return now - self.last_poll_time >= self.poll_interval

    def run_due(self, now: float) -> int:
        """Poll if the interval has elapsed; returns transactions applied."""
        if not self.due(now):
            return 0
        return self.poll(now)

    def poll(self, now: Optional[float] = None) -> int:
        """Apply all pending transactions regardless of schedule.

        The whole backlog goes to the subscriber as one batched round
        trip in commit order; the savings are credited to the subscriber
        server's work counters so benchmarks and the cluster simulator
        can see them.
        """
        if now is not None:
            self.last_poll_time = now
        subscriber = self.subscriber
        pending = []
        if not self.stalled and subscriber.database.owner_server.available:
            pending = self.distributor.distribution_db.read_after(subscriber.last_sequence)
        if not pending:
            # Idle poll or outage (the watermark stays put, so the
            # distribution database retains everything past it): lag
            # gauges still move — the operator-visible symptom.
            replication_metrics.update_lag_gauges(self, now=now)
            return 0
        try:
            self.commands_applied += subscriber.apply_batch(pending)
        except Exception:
            # The failed transaction was undone and the watermark points
            # at the last fully-applied one; re-raise so the caller (the
            # deployment tick) can contain the failure.
            replication_metrics.record_apply_failure(self, now=now)
            raise
        self.transactions_applied += len(pending)
        self.round_trips += 1
        saved = len(pending) - 1
        self.round_trips_saved += saved
        if saved:
            subscriber.database.owner_server.total_work.inc("round_trips_saved", saved)
        replication_metrics.record_batch(self, len(pending), now=now)
        return len(pending)
