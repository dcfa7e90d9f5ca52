"""The distributor and its distribution database.

The distribution database stores *replication commands* — per-committed-
transaction batches of projected row changes — until every subscriber
has consumed them, after which they are deleted (as SQL Server does).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class ReplicationCommand:
    """One projected change within a replicated transaction."""

    article_name: str
    action: str  # "insert" | "delete" | "update"
    old_row: Optional[Tuple] = None
    new_row: Optional[Tuple] = None


@dataclass(frozen=True)
class ReplicatedTransaction:
    """A complete committed transaction, ready for push in commit order."""

    sequence: int  # dense, assigned by the distribution database
    origin_transaction_id: int
    commit_timestamp: float
    commands: Tuple[ReplicationCommand, ...]


class DistributionDatabase:
    """Commit-ordered command store; each subscriber keeps its own
    watermark (a sequence number) into it."""

    def __init__(self):
        self._transactions: List[ReplicatedTransaction] = []
        self._sequence = itertools.count(1)
        self.commands_stored = 0

    def append(
        self,
        origin_transaction_id: int,
        commit_timestamp: float,
        commands: List[ReplicationCommand],
    ) -> ReplicatedTransaction:
        transaction = ReplicatedTransaction(
            sequence=next(self._sequence),
            origin_transaction_id=origin_transaction_id,
            commit_timestamp=commit_timestamp,
            commands=tuple(commands),
        )
        self._transactions.append(transaction)
        self.commands_stored += len(commands)
        return transaction

    @property
    def last_sequence(self) -> int:
        if not self._transactions:
            return 0
        return self._transactions[-1].sequence

    def read_after(self, sequence: int) -> List[ReplicatedTransaction]:
        """All stored transactions with sequence > ``sequence``."""
        if not self._transactions:
            return []
        first = self._transactions[0].sequence
        offset = max(0, sequence - first + 1)
        return self._transactions[offset:]

    def purge_through(self, sequence: int) -> int:
        """Delete transactions every subscriber has consumed."""
        kept = [t for t in self._transactions if t.sequence > sequence]
        purged = len(self._transactions) - len(kept)
        self._transactions = kept
        return purged

    def __len__(self) -> int:
        return len(self._transactions)


class Distributor:
    """Owns the distribution database and the running agents."""

    def __init__(self, clock):
        self.clock = clock
        self.distribution_db = DistributionDatabase()
        self.agents: List = []  # DistributionAgent instances

    def register_agent(self, agent) -> None:
        self.agents.append(agent)
