"""ConnectionPool: bounded checkout, timeout, health-check failover."""

from __future__ import annotations

import threading
import time

import pytest

from repro.client import ConnectionPool, connect
from repro.errors import ClientError, PoolTimeoutError
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


def make_pool(backend, registry, **kwargs):
    kwargs.setdefault("size", 2)
    kwargs.setdefault("registry", registry)
    return ConnectionPool(lambda: connect(backend, database="shop"), **kwargs)


def test_checkout_and_release_cycle(backend, registry):
    pool = make_pool(backend, registry)
    connection = pool.acquire()
    assert pool.in_use == 1
    row = connection.cursor().execute("SELECT cid FROM customer WHERE cid = 1").fetchone()
    assert row == (1,)
    pool.release(connection)
    assert pool.in_use == 0
    assert pool.idle == 1
    # The same connection is reused, not recreated.
    assert pool.acquire() is connection


def test_pool_is_bounded(backend, registry):
    pool = make_pool(backend, registry, size=2, checkout_timeout=0.05)
    first = pool.acquire()
    second = pool.acquire()
    assert pool.in_use == 2
    with pytest.raises(PoolTimeoutError) as excinfo:
        pool.acquire()
    assert excinfo.value.transient
    assert registry.counter("client.checkout_timeouts").value == 1
    pool.release(first)
    pool.release(second)


def test_exhausted_checkout_unblocks_on_release(backend, registry):
    pool = make_pool(backend, registry, size=1, checkout_timeout=5.0)
    held = pool.acquire()
    got = []

    def waiter():
        connection = pool.acquire()
        got.append(connection)
        pool.release(connection)

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    time.sleep(0.05)
    assert not got  # still blocked on the exhausted pool
    pool.release(held)
    thread.join(timeout=5.0)
    assert got == [held]


def test_context_manager_releases_on_error(backend, registry):
    pool = make_pool(backend, registry, size=1)
    with pytest.raises(RuntimeError):
        with pool.connection():
            raise RuntimeError("interaction failed")
    assert pool.in_use == 0
    # The pool is usable again immediately.
    with pool.connection() as connection:
        assert connection.healthy()


def test_release_rolls_back_open_transaction(backend, registry):
    pool = make_pool(backend, registry, size=1)
    connection = pool.acquire()
    connection.begin()
    connection.cursor().execute("UPDATE customer SET cname = 'dirty' WHERE cid = 1")
    pool.release(connection)
    # Next checkout sees clean state and no held latch.
    fresh = pool.acquire()
    row = fresh.cursor().execute("SELECT cname FROM customer WHERE cid = 1").fetchone()
    assert row == ("cust1",)
    pool.release(fresh)


def test_health_check_replaces_unhealthy_connection(backend, registry):
    pool = make_pool(backend, registry, size=1)
    stale = pool.acquire()
    pool.release(stale)
    # The idle connection goes stale while the server bounces.
    backend.crash()
    backend.restart()
    stale_target = stale
    stale_target.closed = False
    # Simulate a connection whose probe fails even though the server is
    # back: force its healthy() to report False once.
    stale_target.healthy = lambda: False  # type: ignore[method-assign]
    fresh = pool.acquire()
    assert fresh is not stale_target
    assert fresh.healthy()
    assert registry.counter("client.unhealthy_checkouts").value == 1
    pool.release(fresh)


def test_unhealthy_checkout_hands_out_connection_when_target_down(backend, registry):
    pool = make_pool(backend, registry, size=1)
    connection = pool.acquire()
    pool.release(connection)
    backend.crash()
    # Both the idle connection and its replacement probe unhealthy: the
    # pool hands one out anyway so the caller sees the transient error.
    handed = pool.acquire()
    assert not handed.healthy()
    pool.release(handed)
    backend.restart()


def test_pool_metrics(backend, registry):
    pool = make_pool(backend, registry, size=2)
    gauge = registry.gauge("client.pool_in_use")
    connection = pool.acquire()
    assert gauge.value == 1.0
    with pool.connection():
        assert gauge.value == 2.0
    pool.release(connection)
    assert gauge.value == 0.0
    assert registry.counter("client.checkouts").value == 2
    histogram = registry.histogram("client.checkout_wait")
    assert histogram.count == 2


def test_closed_pool_rejects_acquire(backend, registry):
    pool = make_pool(backend, registry)
    connection = pool.acquire()
    pool.close()
    with pytest.raises(ClientError):
        pool.acquire()
    # Releasing after close closes the connection instead of pooling it.
    pool.release(connection)
    assert connection.closed
    assert pool.idle == 0


def test_failed_connect_releases_slot(backend, registry):
    calls = {"n": 0}

    def flaky_connect():
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("dns hiccup")
        return connect(backend, database="shop")

    pool = ConnectionPool(flaky_connect, size=1, registry=registry)
    with pytest.raises(RuntimeError):
        pool.acquire()
    # The reserved slot was returned: the next acquire succeeds.
    connection = pool.acquire(timeout=0.5)
    assert connection.healthy()
    pool.release(connection)


def test_pool_size_validation(backend, registry):
    with pytest.raises(ValueError):
        make_pool(backend, registry, size=0)
    with pytest.raises(ValueError):
        make_pool(backend, registry, max_waiters=-1)


def test_release_after_close_closes_connection_and_frees_slot(backend, registry):
    """Every connection checked out at close time must be closed on
    release AND give its slot back — no leaked connections, no phantom
    capacity (regression guard for the close/release race)."""
    pool = make_pool(backend, registry, size=2)
    first = pool.acquire()
    second = pool.acquire()
    pool.close()
    pool.release(first)
    pool.release(second)
    assert first.closed and second.closed
    assert pool.idle == 0
    assert pool.in_use == 0
    assert pool._created == 0


def test_release_of_closed_connection_frees_slot(backend, registry):
    """A connection the application closed itself must not be pooled as
    idle; its slot is recycled so the pool can mint a replacement."""
    pool = make_pool(backend, registry, size=1)
    connection = pool.acquire()
    connection.close()
    pool.release(connection)
    assert pool.idle == 0
    replacement = pool.acquire(timeout=0.5)
    assert replacement is not connection
    assert replacement.healthy()
    pool.release(replacement)


class TestMaxWaiters:
    def test_full_waiter_queue_sheds_with_overload_error(self, backend, registry):
        from repro.errors import OverloadError

        pool = make_pool(
            backend, registry, size=1, max_waiters=0, checkout_timeout=5.0
        )
        held = pool.acquire()
        started = time.perf_counter()
        with pytest.raises(OverloadError) as excinfo:
            pool.acquire()
        # Fail fast: shed immediately, not after the checkout timeout.
        assert time.perf_counter() - started < 1.0
        assert excinfo.value.transient
        assert pool.shed == 1
        assert registry.counter("overload.pool_shed").value == 1
        pool.release(held)
        # Capacity back: the next checkout is admitted normally.
        refreshed = pool.acquire()
        pool.release(refreshed)

    def test_waiters_below_the_bound_still_wait(self, backend, registry):
        pool = make_pool(
            backend, registry, size=1, max_waiters=1, checkout_timeout=5.0
        )
        held = pool.acquire()
        got = []

        def waiter():
            connection = pool.acquire()
            got.append(connection)
            pool.release(connection)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        time.sleep(0.05)  # let the waiter enter the queue
        assert registry.gauge("overload.pool_waiters").value == 1.0
        pool.release(held)
        thread.join(timeout=5.0)
        assert got == [held]
        assert pool.shed == 0
        assert registry.gauge("overload.pool_waiters").value == 0.0


def test_admission_gate_guards_checkout(backend, registry):
    from repro.errors import OverloadError
    from repro.resilience import AdmissionController

    clock = backend.clock
    gate = AdmissionController(
        clock, rate=5.0, burst=1.0, queue_delay_target=0.05, name="pool"
    )
    pool = make_pool(backend, registry, size=4, admission=gate)
    # Hammer checkouts in zero virtual time: the gate sheds once its
    # virtual queue passes the hard bound.
    shed = 0
    for _ in range(100):
        try:
            connection = pool.acquire()
        except OverloadError:
            shed += 1
        else:
            pool.release(connection)
    assert shed > 0
    assert gate.shed == shed
