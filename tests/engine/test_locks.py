"""The locking hierarchy: RWLock semantics, lock plans, latch lifecycle."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.common.locks import RWLock
from repro.engine.locks import (
    LockMode,
    LockPlan,
    TableLockManager,
    TableLocks,
    referenced_tables,
    statement_lock_plan,
)
from repro.engine.server import Server
from repro.sql import parse


# -- RWLock -------------------------------------------------------------------


def test_readers_share():
    lock = RWLock()
    lock.acquire_shared()
    lock.acquire_shared()
    assert lock.readers == 2
    lock.release_shared()
    lock.release_shared()
    assert lock.readers == 0


def test_exclusive_blocks_reader():
    lock = RWLock()
    lock.acquire_exclusive()
    entered = threading.Event()

    def reader():
        lock.acquire_shared()
        entered.set()
        lock.release_shared()

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    time.sleep(0.05)
    assert not entered.is_set()
    lock.release_exclusive()
    thread.join(timeout=5.0)
    assert entered.is_set()


def test_reader_blocks_writer_until_release():
    lock = RWLock()
    lock.acquire_shared()
    entered = threading.Event()

    def writer():
        lock.acquire_exclusive()
        entered.set()
        lock.release_exclusive()

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    time.sleep(0.05)
    assert not entered.is_set()
    lock.release_shared()
    thread.join(timeout=5.0)
    assert entered.is_set()


def test_exclusive_is_reentrant_for_owner():
    lock = RWLock()
    lock.acquire_exclusive()
    lock.acquire_exclusive()  # same thread: no self-deadlock
    assert lock.owns_exclusive()
    lock.release_exclusive()
    assert lock.owns_exclusive()  # still held at depth 1
    lock.release_exclusive()
    assert not lock.owns_exclusive()


def test_exclusive_owner_passes_through_shared():
    lock = RWLock()
    lock.acquire_exclusive()
    with lock.shared():  # must not deadlock against itself
        pass
    lock.release_exclusive()


def test_release_exclusive_without_ownership_raises():
    lock = RWLock()
    with pytest.raises(RuntimeError):
        lock.release_exclusive()


def test_timed_out_writer_lets_queued_readers_in():
    """A writer that gives up wakes the readers queued behind it: they
    wait only while a writer is waiting, and it no longer is."""
    lock = RWLock()
    lock.acquire_shared()  # the first reader holds on throughout
    outcome = []
    reader_in = threading.Event()

    def writer():
        outcome.append(lock.acquire_exclusive(timeout=0.5))

    def reader():
        lock.acquire_shared()
        reader_in.set()
        lock.release_shared()

    writing = threading.Thread(target=writer, daemon=True)
    writing.start()
    deadline = time.monotonic() + 5.0
    while "waiting=1" not in repr(lock) and time.monotonic() < deadline:
        time.sleep(0.005)
    reading = threading.Thread(target=reader, daemon=True)
    reading.start()
    time.sleep(0.05)
    assert not reader_in.is_set()  # queued behind the waiting writer
    writing.join(timeout=5.0)
    assert outcome == [False]
    try:
        assert reader_in.wait(timeout=1.0)
    finally:
        lock.release_shared()
        reading.join(timeout=5.0)
    assert lock.readers == 0


def test_readers_and_writers_under_contention_lose_no_wakeup():
    """More threads than cores, a short switch interval, writers that time
    out among writers that wait: every thread finishes (no reader or
    writer sleeps through the release it waits for) and no writer ever
    overlaps a reader or another writer."""
    lock = RWLock()
    state = {"writers": 0, "writes": 0}
    errors = []

    def reader():
        for _ in range(300):
            lock.acquire_shared()
            try:
                if state["writers"]:
                    errors.append("a reader overlapped a writer")
            finally:
                lock.release_shared()

    def writer(timeout):
        for _ in range(100):
            if not lock.acquire_exclusive(timeout=timeout):
                continue
            try:
                state["writers"] += 1
                if state["writers"] != 1 or lock.readers:
                    errors.append("a writer overlapped another holder")
                state["writes"] += 1
                state["writers"] -= 1
            finally:
                lock.release_exclusive()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, daemon=True) for _ in range(6)]
        threads += [threading.Thread(target=writer, args=(None,), daemon=True) for _ in range(2)]
        threads += [threading.Thread(target=writer, args=(0.001,), daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert state["writes"] >= 200  # the writers that wait never give up
    assert lock.readers == 0 and not lock.owns_exclusive()


# -- TableLockManager ---------------------------------------------------------


def test_table_locks_deduplicate_exclusive_wins():
    manager = TableLockManager()
    with manager.locking(
        [("orders", LockMode.SHARED), ("Orders", LockMode.EXCLUSIVE)]
    ):
        assert manager.lock_for("orders").owns_exclusive()
    assert not manager.lock_for("orders").owns_exclusive()


def test_table_locks_acquire_sorted_and_release_what_they_took():
    manager = TableLockManager()
    batch = manager.locking([("b", LockMode.SHARED), ("a", LockMode.EXCLUSIVE)])
    assert batch.locks == ((manager.lock_for("a"), True), (manager.lock_for("b"), False))
    # A lock that fails mid-batch: the locks already taken are released.
    broken = RWLock()
    broken.acquire_shared = lambda: (_ for _ in ()).throw(RuntimeError("refused"))
    partial = TableLocks(
        [
            (manager.lock_for("a"), LockMode.EXCLUSIVE),
            (manager.lock_for("b"), LockMode.SHARED),
            (broken, LockMode.SHARED),
        ]
    )
    with pytest.raises(RuntimeError):
        with partial:
            pass
    assert not manager.lock_for("a").owns_exclusive()
    assert manager.lock_for("b").readers == 0
    with batch:  # reusable: it keeps no per-use state
        assert manager.lock_for("b").readers == 1
    with batch:
        assert manager.lock_for("a").owns_exclusive()


def test_table_locks_released_on_error():
    manager = TableLockManager()
    with pytest.raises(RuntimeError):
        with manager.locking([("a", LockMode.EXCLUSIVE)]):
            raise RuntimeError("statement failed")
    assert not manager.lock_for("a").owns_exclusive()


# -- statement_lock_plan ------------------------------------------------------


def plan_for(sql: str, catalog=None) -> LockPlan:
    return statement_lock_plan(parse(sql), catalog)


def test_select_takes_shared_latch_and_shared_tables():
    plan = plan_for("SELECT cid FROM customer WHERE cid = 1")
    assert plan.latch is LockMode.SHARED
    assert plan.tables == (("customer", LockMode.SHARED),)


def test_dml_takes_exclusive_table_lock():
    plan = plan_for("UPDATE orders SET total = 0 WHERE oid = 1")
    assert plan.latch is LockMode.SHARED
    assert plan.tables == (("orders", LockMode.EXCLUSIVE),)


def test_insert_select_locks_source_and_target():
    plan = plan_for("INSERT INTO archive (oid) SELECT oid FROM orders")
    assert dict(plan.tables) == {
        "archive": LockMode.EXCLUSIVE,
        "orders": LockMode.SHARED,
    }


def test_subquery_tables_are_locked():
    plan = plan_for(
        "SELECT cid FROM customer "
        "WHERE cid IN (SELECT o_cid FROM orders WHERE total > 10)"
    )
    assert dict(plan.tables) == {
        "customer": LockMode.SHARED,
        "orders": LockMode.SHARED,
    }


def test_table_locks_are_sorted_for_deadlock_avoidance():
    plan = plan_for("SELECT * FROM zebra z JOIN apple a ON z.id = a.id")
    assert [name for name, _ in plan.tables] == ["apple", "zebra"]


def test_ddl_takes_exclusive_latch():
    plan = plan_for("CREATE TABLE t (a INT PRIMARY KEY)")
    assert plan.latch is LockMode.EXCLUSIVE
    assert plan.tables == ()


def test_linked_server_tables_not_locked_locally():
    plan = plan_for("SELECT a FROM backend.shop.dbo.customer")
    assert plan.tables == ()


def test_transaction_control_has_no_plan():
    assert statement_lock_plan(parse("BEGIN TRANSACTION")) is None
    assert statement_lock_plan(parse("COMMIT")) is None


def test_pure_variable_statements_have_no_plan():
    assert statement_lock_plan(parse("DECLARE @x INT = 1")) is None


def test_variable_statement_with_subquery_locks_reads():
    plan = plan_for("DECLARE @n INT = (SELECT cid FROM customer WHERE cid = 1)")
    assert plan.latch is LockMode.SHARED
    assert plan.tables == (("customer", LockMode.SHARED),)


# -- procedure lock plans -----------------------------------------------------


@pytest.fixture
def proc_server():
    server = Server("procs")
    server.create_database("db")
    server.execute(
        """
        CREATE TABLE seq (n INT PRIMARY KEY);
        CREATE PROCEDURE nextId AS BEGIN
            DECLARE @n INT = (SELECT MAX(n) FROM seq);
            INSERT INTO seq (n) VALUES (@n + 1);
        END;
        CREATE PROCEDURE readOnly AS BEGIN
            SELECT n FROM seq;
        END;
        CREATE PROCEDURE callsWriter AS BEGIN
            EXEC nextId;
        END;
        """,
        database="db",
    )
    server.execute("INSERT INTO seq (n) VALUES (1)", database="db")
    return server


def test_writing_procedure_takes_exclusive_latch(proc_server):
    catalog = proc_server.database("db").catalog
    plan = statement_lock_plan(parse("EXEC nextId"), catalog)
    assert plan is not None
    assert plan.latch is LockMode.EXCLUSIVE


def test_read_only_procedure_has_no_plan(proc_server):
    catalog = proc_server.database("db").catalog
    assert statement_lock_plan(parse("EXEC readOnly"), catalog) is None


def test_nested_writer_classifies_caller_exclusive(proc_server):
    catalog = proc_server.database("db").catalog
    plan = statement_lock_plan(parse("EXEC callsWriter"), catalog)
    assert plan is not None
    assert plan.latch is LockMode.EXCLUSIVE


def test_unknown_procedure_has_no_local_plan(proc_server):
    # Forwarded to the backend, which takes its own locks.
    catalog = proc_server.database("db").catalog
    assert statement_lock_plan(parse("EXEC somewhereElse"), catalog) is None


def test_concurrent_writing_procedures_do_not_collide(proc_server):
    """Two threads calling SELECT-MAX-then-INSERT never pick the same id."""
    failures = []

    def caller():
        try:
            for _ in range(10):
                proc_server.execute("EXEC nextId", database="db")
        except Exception as exc:  # pragma: no cover - only on regression
            failures.append(exc)

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert failures == []
    count = proc_server.execute("SELECT MAX(n) FROM seq", database="db").scalar
    assert count == 1 + 4 * 10


# -- referenced_tables --------------------------------------------------------


def test_view_reads_lock_base_tables(backend):
    backend.execute(
        "CREATE VIEW gold_customers AS "
        "SELECT cid, cname FROM customer WHERE segment = 'gold'",
        database="shop",
    )
    catalog = backend.database("shop").catalog
    reads, writes = referenced_tables(
        parse("SELECT cname FROM gold_customers"), catalog
    )
    assert reads == {"customer"}
    assert writes == set()


# -- latch lifecycle through the server ---------------------------------------


def test_explicit_transaction_holds_latch_exclusively(backend):
    from repro.engine.session import Session

    database = backend.database("shop")
    session = Session(principal="dbo", database="shop")
    backend.execute("BEGIN TRANSACTION", session=session, database="shop")
    # The hold is the session's; between statements no thread owns anything.
    assert database.latch.holder is session
    assert not database.latch.owns_exclusive()
    backend.execute("COMMIT", session=session, database="shop")
    assert database.latch.holder is None


def test_rollback_releases_latch(backend):
    from repro.engine.session import Session

    database = backend.database("shop")
    session = Session(principal="dbo", database="shop")
    backend.execute("BEGIN TRANSACTION", session=session, database="shop")
    backend.execute(
        "UPDATE customer SET cname = 'x' WHERE cid = 1",
        session=session,
        database="shop",
    )
    backend.execute("ROLLBACK", session=session, database="shop")
    assert database.latch.holder is None and not database.latch.owns_exclusive()
    assert database.latch.readers == 0


def test_crash_releases_latch(backend):
    from repro.engine.session import Session

    database = backend.database("shop")
    session = Session(principal="dbo", database="shop")
    backend.execute("BEGIN TRANSACTION", session=session, database="shop")
    assert database.latch.holder is session
    backend.crash()
    assert database.latch.holder is None
    backend.restart()
