"""Transactions with WAL logging and undo-based rollback.

Changes apply to storage eagerly; each change appends a WAL record (the
replication log reader's food) and an undo entry. COMMIT stamps the WAL
with the virtual commit time — replication latency is measured from this
timestamp to the subscriber-side apply time.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from repro.common.locks import mutex
from repro.errors import TransactionError
from repro.storage.table import Table
from repro.storage.wal import LogRecordType, WriteAheadLog


class Transaction:
    """One transaction: id, undo log, state."""

    _ids = itertools.count(1)

    def __init__(self, manager: "TransactionManager"):
        self.id = next(Transaction._ids)
        self.manager = manager
        self.active = True
        # Undo entries: ("insert", table, rid) | ("delete", table, rid, row)
        #             | ("update", table, rid, old_row)
        self._undo: List[Tuple] = []

    def record_insert(self, table: Table, rid: int) -> None:
        self._undo.append(("insert", table, rid))

    def record_delete(self, table: Table, rid: int, row: Tuple) -> None:
        self._undo.append(("delete", table, rid, row))

    def record_update(self, table: Table, rid: int, old_row: Tuple) -> None:
        self._undo.append(("update", table, rid, old_row))

    def undo_all(self) -> None:
        """Reverse every change, newest first."""
        for entry in reversed(self._undo):
            kind = entry[0]
            if kind == "insert":
                _, table, rid = entry
                table.delete_rid(rid)
            elif kind == "delete":
                # Restore under the original rid so later undo entries
                # referencing it stay valid.
                _, table, rid, row = entry
                table.insert_with_rid(rid, row)
            else:
                _, table, rid, old_row = entry
                table.update_rid(rid, old_row)
        self._undo.clear()


class TransactionManager:
    """Transaction manager for one database.

    Supports multiple concurrently active transactions (one per session
    or DTC participant), each ended through its own handle; the engine's
    latch protocol decides which of them may actually run side by side.
    """

    def __init__(self, wal: WriteAheadLog, clock):
        self.wal = wal
        self.clock = clock
        self._mutex = mutex()
        self._active: Dict[int, Transaction] = {}

    def active_transactions(self) -> List[Transaction]:
        """Every still-active transaction, oldest first (crash recovery)."""
        with self._mutex:
            return [t for t in self._active.values() if t.active]

    def begin(self) -> Transaction:
        transaction = Transaction(self)
        with self._mutex:
            self._active[transaction.id] = transaction
        self.wal.append(LogRecordType.BEGIN, transaction.id)
        return transaction

    def commit(self, transaction: Transaction) -> float:
        """Commit; returns the virtual commit timestamp."""
        if not transaction.active:
            raise TransactionError("no active transaction to commit")
        timestamp = self.clock.now()
        self.wal.append(LogRecordType.COMMIT, transaction.id, timestamp=timestamp)
        transaction.active = False
        with self._mutex:
            self._active.pop(transaction.id, None)
        return timestamp

    def rollback(self, transaction: Transaction) -> None:
        if not transaction.active:
            raise TransactionError("no active transaction to roll back")
        transaction.undo_all()
        self.wal.append(LogRecordType.ABORT, transaction.id)
        transaction.active = False
        with self._mutex:
            self._active.pop(transaction.id, None)

    # -- logged storage operations ---------------------------------------

    def logged_insert(self, transaction: Transaction, table: Table, values: Sequence) -> int:
        rid = table.insert(values)
        row = table.rows[rid]
        self.wal.append(
            LogRecordType.INSERT, transaction.id, table=table.name, new_row=row
        )
        transaction.record_insert(table, rid)
        return rid

    def logged_delete(self, transaction: Transaction, table: Table, rid: int) -> Tuple:
        old_row = table.delete_rid(rid)
        self.wal.append(
            LogRecordType.DELETE, transaction.id, table=table.name, old_row=old_row
        )
        transaction.record_delete(table, rid, old_row)
        return old_row

    def logged_update(
        self, transaction: Transaction, table: Table, rid: int, values: Sequence
    ) -> Tuple[Tuple, Tuple]:
        old_row, new_row = table.update_rid(rid, values)
        self.wal.append(
            LogRecordType.UPDATE,
            transaction.id,
            table=table.name,
            old_row=old_row,
            new_row=new_row,
        )
        transaction.record_update(table, rid, old_row)
        return old_row, new_row
