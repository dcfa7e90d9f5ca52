"""Subscribers and subscriptions: the receiving end of replication.

A *subscriber* is one shadow database on a cache server. It holds the
one watermark into the distribution database's commit-ordered stream —
so every cached view of that cache reflects the same committed prefix of
the backend's history — and it survives its distribution agent being
killed and its server crashing. A *subscription* is the per-view binding
underneath: one article delivered into one target table (for MTCache:
the backing table of a cached view).

Apply goes through a *prepared applier* — the replication analogue of a
prepared statement. Instead of re-resolving the target table and probing
every index per command, the applier binds the table and its unique
index once per batch and each command then executes against
pre-resolved state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.locks import LockMode
from repro.errors import ReplicationError
from repro.replication.publication import Article
from repro.storage.table import Table

_EXCLUSIVE = LockMode.EXCLUSIVE

#: One reversible step of an apply: (table, action, rid, old row).
_UndoEntry = Tuple[Table, str, int, Optional[Tuple]]


class PreparedApplier:
    """Pre-bound apply state for one subscription's target table.

    Resolving the storage table and scanning ``table.indexes`` for the
    unique index is loop-invariant across the commands of a batch; doing
    it once per subscriber round trip instead of once per command is the
    replication half of the statement fast path.
    """

    __slots__ = ("table", "unique_index")

    def __init__(self, table: Table):
        self.table = table
        self.unique_index = next(
            (index for index in table.indexes.values() if index.unique), None
        )

    def locate(self, row: Tuple) -> Optional[int]:
        """Find the target row: unique-index fast path, then full match."""
        if self.unique_index is not None:
            key = tuple(row[position] for position in self.unique_index.positions)
            rids = self.unique_index.seek(key)
            return rids[0] if rids else None
        for rid, existing in self.table.rows.items():
            if existing == row:
                return rid
        return None


class Subscription:
    """One article -> one target table of a :class:`Subscriber`."""

    def __init__(self, name: str, article: Article, target_table: str):
        self.name = name
        self.article = article
        self.target_table = target_table
        self.commands_applied = 0
        # Fault-injection hook (repro.faults); None is a true no-op.
        self.injector = None

    def apply(self, command, applier: PreparedApplier, undo: List[_UndoEntry]) -> None:
        """Apply one command to the target table, recording its inverse.

        The caller (:meth:`Subscriber.apply_transaction`) holds the
        locks and owns ``undo``; a raise here leaves this command
        unapplied and everything before it reversible.
        """
        if self.injector is not None:
            self.injector.on_call(
                f"subscription:{self.name}:apply",
                subscription=self,
                command=command,
            )
        table = applier.table
        if command.action == "insert":
            undo.append((table, "insert", table.insert(command.new_row), None))
        elif command.action == "delete":
            rid = applier.locate(command.old_row)
            if rid is None:
                raise ReplicationError(
                    f"subscription {self.name!r}: row to delete not found in {self.target_table!r}"
                )
            table.delete_rid(rid)
            undo.append((table, "delete", rid, command.old_row))
        else:
            rid = applier.locate(command.old_row)
            if rid is None:
                # The old image should exist; treat as insert to
                # converge rather than silently diverging.
                undo.append((table, "insert", table.insert(command.new_row), None))
            else:
                old_row, _ = table.update_rid(rid, command.new_row)
                undo.append((table, "update", rid, old_row))


def _undo(undo: List[_UndoEntry]) -> None:
    """Reverse the applied prefix of a failed transaction, newest first."""
    for table, action, rid, old_row in reversed(undo):
        if action == "insert":
            table.delete_rid(rid)
        elif action == "delete":
            table.insert_with_rid(rid, old_row)
        else:
            table.update_rid(rid, old_row)


class Subscriber:
    """One shadow database as a replication subscriber.

    Holds the subscriptions of every cached view in the database and the
    single position they share in the distribution database's stream.
    """

    def __init__(self, name: str, database):
        self.name = name
        self.database = database
        # View name (lower) -> its subscription; ``_by_article`` is the
        # apply-time index over the same objects, keyed by the name
        # commands carry (identical views share one article, so an
        # article may feed several tables).
        self.subscriptions: Dict[str, Subscription] = {}
        self._by_article: Dict[str, List[Subscription]] = {}
        # Position in the distribution database's commit-ordered stream:
        # every view holds exactly the transactions up to here.
        self.last_sequence = 0
        # The newest applied transaction (commit timestamp, origin id)
        # and when, on the subscriber's clock, it was applied.
        self.last_applied_commit_ts: float = 0.0
        self.last_applied_origin_id: Optional[int] = None
        self.last_apply_time: float = 0.0
        # Reader scan time as of which the whole stream had been consumed.
        self.synced_through: float = 0.0
        # (commit_ts, applied_at) per transaction that changed a view.
        self.latency_samples: List[Tuple[float, float]] = []

    def add(self, subscription: Subscription) -> None:
        self.subscriptions[subscription.target_table.lower()] = subscription
        self._by_article.setdefault(subscription.article.name, []).append(subscription)

    def remove(self, view_name: str) -> None:
        subscription = self.subscriptions.pop(view_name.lower())
        self._by_article[subscription.article.name].remove(subscription)

    def as_of(self) -> float:
        """The time the views are current as of: the newest applied
        commit, or the reader scan after which nothing was left to apply."""
        return max(self.synced_through, self.last_applied_commit_ts)

    def staleness(self, now: float) -> float:
        """Upper bound (seconds) on how stale the views are at ``now``."""
        return max(0.0, now - self.as_of())

    def apply_batch(self, transactions) -> int:
        """Apply a commit-ordered batch in one subscriber round trip.

        All transactions share one prepared applier per view; each is
        still applied atomically in commit order, with its own watermark
        and latency bookkeeping, so consistency is exactly that of
        applying them one round trip at a time.
        """
        appliers: Dict[Subscription, PreparedApplier] = {}
        return sum(
            self.apply_transaction(transaction, appliers) for transaction in transactions
        )

    def apply_transaction(
        self, transaction, appliers: Dict[Subscription, PreparedApplier]
    ) -> int:
        """Apply one replicated transaction to every view it touches.

        Atomic across the whole subscriber: a failure partway through (a
        missing old image, an injected fault) undoes the commands
        already applied — on every table — and leaves ``last_sequence``
        at the previous transaction, so the next poll's
        ``read_after(last_sequence)`` re-delivers exactly this
        transaction and its unapplied successors. That is the
        exactly-once guarantee at transaction granularity: a crash
        mid-batch never skips, double-applies or splits a transaction.

        The apply (including the undo of a failed prefix) runs under the
        database's latch (shared) plus exclusive locks on every target
        table — under the view's own name and under its source table's,
        which is what a transparent statement names and locks — taken in
        the same sorted order as a local DML statement. So a reader
        joining two cached tables never observes a transaction applied
        to one and not the other. A thread that already owns the latch
        exclusively (the drain inside ``CREATE CACHED VIEW``) passes
        straight through the shared acquisition.
        """
        with self.database.latch.shared():
            return self._apply_latched(transaction, appliers)

    def _apply_latched(
        self, transaction, appliers: Dict[Subscription, PreparedApplier]
    ) -> int:
        if transaction.sequence <= self.last_sequence:
            return 0  # a concurrent drain got here first
        # Resolved under the latch: DROP VIEW (latch exclusive) removes
        # a subscription together with its table.
        work = [
            (subscription, command)
            for command in transaction.commands
            for subscription in self._by_article.get(command.article_name, ())
        ]
        locks = set()
        for subscription, _ in work:
            locks.add((subscription.target_table, _EXCLUSIVE))
            locks.add((subscription.article.source_table, _EXCLUSIVE))
        undo: List[_UndoEntry] = []
        with self.database.lock_manager.locking(locks):
            try:
                for subscription, command in work:
                    applier = appliers.get(subscription)
                    if applier is None:
                        applier = appliers[subscription] = PreparedApplier(
                            self.database.storage_table(subscription.target_table)
                        )
                    subscription.apply(command, applier, undo)
            except Exception:
                _undo(undo)
                raise
        now = self.database.clock.now()
        self.last_sequence = transaction.sequence
        self.last_applied_commit_ts = max(
            self.last_applied_commit_ts, transaction.commit_timestamp
        )
        self.last_applied_origin_id = transaction.origin_transaction_id
        self.last_apply_time = now
        if work:
            self.latency_samples.append((transaction.commit_timestamp, now))
            for subscription, _ in work:
                subscription.commands_applied += 1
        return len(work)

    def last_applied(self) -> dict:
        """The subscriber's "how far am I" answer."""
        return {
            "subscriber": self.name,
            "sequence": self.last_sequence,
            "commit_timestamp": self.last_applied_commit_ts,
            "origin_transaction_id": self.last_applied_origin_id,
            "applied_at": self.last_apply_time,
        }
