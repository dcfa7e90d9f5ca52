"""The distributor and its distribution database.

The distribution database stores *replication commands* — per-committed-
transaction batches of projected row changes — until every subscriber
has consumed them, after which they are deleted (as SQL Server does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ReplicationError


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
    watermark (a sequence number) into it.

    Sequences are dense: the store holds ``purged_through + 1`` through
    :attr:`last_sequence`, so the frontier stays where it is when a purge
    empties the store.
    """

    def __init__(self):
        self._transactions: List[ReplicatedTransaction] = []
        self.purged_through = 0
        self.commands_stored = 0

    def append(
        self,
        origin_transaction_id: int,
        commit_timestamp: float,
        commands: List[ReplicationCommand],
    ) -> ReplicatedTransaction:
        transaction = ReplicatedTransaction(
            sequence=self.last_sequence + 1,
            origin_transaction_id=origin_transaction_id,
            commit_timestamp=commit_timestamp,
            commands=tuple(commands),
        )
        self._transactions.append(transaction)
        self.commands_stored += len(commands)
        return transaction

    @property
    def last_sequence(self) -> int:
        """The last sequence ever assigned (0 before the first)."""
        return self.purged_through + len(self._transactions)

    def read_after(self, sequence: int) -> List[ReplicatedTransaction]:
        """All stored transactions with sequence > ``sequence``, which must
        not precede the purge: a watermark only ever trails what is kept."""
        if sequence < self.purged_through:
            raise ReplicationError(
                f"transactions after {sequence} were purged through {self.purged_through}"
            )
        return self._transactions[sequence - self.purged_through :]

    def purge_through(self, sequence: int) -> int:
        """Delete transactions every subscriber has consumed."""
        purged = max(0, sequence - self.purged_through)
        del self._transactions[:purged]
        self.purged_through += purged
        return purged

    def __len__(self) -> int:
        return len(self._transactions)


class Distributor:
    """Owns the distribution database and the running agents."""

    def __init__(self):
        self.distribution_db = DistributionDatabase()
        self.agents: List = []  # DistributionAgent instances

    def register_agent(self, agent) -> None:
        self.agents.append(agent)
