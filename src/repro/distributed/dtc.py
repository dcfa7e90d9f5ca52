"""A Distributed Transaction Coordinator (DTC) analogue.

SQL Server supports distributed transactions across linked servers through
Microsoft DTC and two-phase commit. This module provides the equivalent
for the repro engine: a coordinator that enlists per-database transactions
and commits them atomically — all participants commit, or all roll back.

The engine's local transactions apply changes eagerly with undo logs, so
*prepare* here validates that every enlisted transaction is still active
(the failure window 2PC protects against), and *commit* finalizes each
participant. Any prepare failure triggers rollback everywhere, which the
undo logs make possible.

A failure in the *commit phase* is the harder case — some participants
have already durably committed and cannot be rolled back. The coordinator
then stops, rolls back the still-active remainder, and records an
:class:`InDoubtRecord` (counted on ``dtc.in_doubt``) in the process-global
:class:`DtcRecoveryLog`. A recovery pass (:meth:`DtcRecoveryLog.resolve`)
resolves records deterministically: since the commit phase only starts
after a unanimous prepare, the coordinator's decision was *commit* — a
record whose branches all rolled back resolves as a clean global
rollback, anything with a committed branch resolves as heuristic damage
(the MS DTC "heuristically resolved" analogue) and is surfaced on the
``dtc.heuristic_outcomes`` counter for operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.errors import DistributedError, TransactionError
from repro.obs.metrics import global_registry
from repro.obs.tracing import Tracer

# The DTC has no owning server, so its spans and counters go to the
# process-global tracer/registry; spans still nest under whatever server
# span is active when commit() is called (context propagation).
_TRACER = Tracer(service="dtc")


@dataclass
class InDoubtRecord:
    """One commit-phase failure: which branches landed where."""

    participants: int
    committed: List[str] = field(default_factory=list)
    rolled_back: List[str] = field(default_factory=list)
    failed: str = ""
    error: str = ""
    resolved: bool = False
    resolution: Optional[str] = None


class DtcRecoveryLog:
    """The durable-log analogue the recovery pass reads.

    Real DTC writes its commit decision to a log and a recovery process
    replays it after failures; here the records accumulate in process and
    :meth:`resolve` is the recovery pass.
    """

    def __init__(self):
        self.records: List[InDoubtRecord] = []

    def append(self, record: InDoubtRecord) -> None:
        self.records.append(record)

    def pending(self) -> List[InDoubtRecord]:
        return [record for record in self.records if not record.resolved]

    def clear(self) -> None:
        self.records = []

    def resolve(self) -> List[InDoubtRecord]:
        """Resolve every pending record; returns those resolved.

        Deterministic rule: a unanimous prepare preceded the failure, so
        the coordinator's decision was commit. ``rolled_back`` resolution
        means no branch had committed yet — the outcome is a globally
        consistent rollback. Any committed branch makes the outcome mixed
        ("heuristic-damage"): the commit decision stands for the
        committed branches while others aborted, which operators must
        reconcile — exactly what the ``dtc.heuristic_outcomes`` counter
        flags.
        """
        registry = global_registry()
        resolved = []
        for record in self.records:
            if record.resolved:
                continue
            record.resolution = "rolled_back" if not record.committed else "heuristic-damage"
            record.resolved = True
            registry.counter("dtc.in_doubt_resolved").inc()
            if record.resolution == "heuristic-damage":
                registry.counter("dtc.heuristic_outcomes").inc()
            resolved.append(record)
        return resolved


_RECOVERY_LOG = DtcRecoveryLog()


def recovery_log() -> DtcRecoveryLog:
    """The process-global in-doubt log (tests may ``clear()`` it)."""
    return _RECOVERY_LOG


class DistributedTransactionCoordinator:
    """Coordinates one distributed transaction across databases."""

    def __init__(self):
        # Each participant is (database, transaction).
        self._participants: List[Tuple[object, object]] = []
        self._finished = False
        #: In-doubt records produced by this coordinator (also appended
        #: to the global recovery log).
        self.in_doubt: List[InDoubtRecord] = []
        #: One-shot hook fired after a successful prepare, before the
        #: first branch commit — the fault injector's window for aborting
        #: a participant between phases.
        self.on_before_commit_phase: Optional[Callable[["DistributedTransactionCoordinator"], None]] = None

    def begin_on(self, database) -> object:
        """Begin a branch transaction on a database and enlist it."""
        transaction = database.transactions.begin()
        self._participants.append((database, transaction))
        return transaction

    def enlist(self, database, transaction) -> None:
        """Enlist an already-running transaction."""
        self._participants.append((database, transaction))

    @property
    def participant_count(self) -> int:
        return len(self._participants)

    @property
    def participants(self) -> List[Tuple[object, object]]:
        """The enlisted (database, transaction) pairs (fault injection)."""
        return self._participants

    def prepare(self) -> bool:
        """Phase one: every participant votes."""
        if self._finished:
            raise DistributedError("transaction already finished")
        with _TRACER.child_span("2pc.prepare", participants=len(self._participants)):
            for _, transaction in self._participants:
                if not transaction.active:
                    global_registry().counter("dtc.prepare_failures").inc()
                    return False
            return True

    def commit(self) -> None:
        """Phase two: commit everywhere, or record the damage honestly.

        On a commit-phase failure the coordinator stops immediately,
        rolls back every still-active participant, and raises with an
        :class:`InDoubtRecord` logged — it does *not* keep committing the
        remaining branches (that would widen the inconsistency window).
        """
        with _TRACER.child_span("2pc.commit", participants=len(self._participants)):
            if not self.prepare():
                self.rollback()
                raise DistributedError(
                    "prepare failed; distributed transaction rolled back"
                )
            hook = self.on_before_commit_phase
            if hook is not None:
                self.on_before_commit_phase = None
                hook(self)
            committed: List[str] = []
            for index, (database, transaction) in enumerate(self._participants):
                try:
                    database.transactions.commit(transaction)
                except TransactionError as exc:
                    self._abort_commit_phase(index, committed, exc)
                committed.append(database.name)
            self._finished = True
            global_registry().counter("dtc.commits").inc()

    def _abort_commit_phase(
        self, index: int, committed: List[str], exc: TransactionError
    ) -> None:
        """Stop the commit phase at participant ``index`` (which failed)."""
        failed_db = self._participants[index][0]
        rolled_back: List[str] = []
        for database, transaction in self._participants[index + 1:]:
            if transaction.active:
                database.transactions.rollback(transaction)
                rolled_back.append(database.name)
        record = InDoubtRecord(
            participants=len(self._participants),
            committed=list(committed),
            rolled_back=rolled_back,
            failed=failed_db.name,
            error=str(exc),
        )
        self.in_doubt.append(record)
        recovery_log().append(record)
        registry = global_registry()
        registry.counter("dtc.commit_phase_failures").inc()
        if committed:
            # One in-doubt branch per participant that already committed
            # against a transaction whose other branches did not.
            registry.counter("dtc.in_doubt").inc(len(committed))
        self._finished = True
        raise DistributedError(
            f"commit phase failed on {failed_db.name!r}: "
            f"{len(committed)} participant(s) already committed (in doubt), "
            f"{len(rolled_back)} rolled back"
        ) from exc

    def rollback(self) -> None:
        """Abort every still-active participant."""
        if self._finished:
            return
        with _TRACER.child_span("2pc.rollback", participants=len(self._participants)):
            for database, transaction in self._participants:
                if transaction.active:
                    database.transactions.rollback(transaction)
            self._finished = True
            global_registry().counter("dtc.rollbacks").inc()
