"""A bounded connection pool with checkout timeout and health checks.

The pool owns up to ``size`` connections created by a ``connect``
callable. Checkout order: an idle connection if one exists, else a new
connection if the pool is not at capacity, else wait on a condition
variable until a release — up to ``checkout_timeout`` wall-clock seconds,
after which :class:`~repro.errors.PoolTimeoutError` is raised (it is
``transient``, so callers may shed load or retry).

On checkout the connection is health-checked via its ``healthy()`` probe
(PR-4 machinery: ``Server.available``, ``CacheServer.healthy``). An
unhealthy connection is closed and replaced once; if the replacement is
*still* unhealthy it is handed out anyway — the statement will fail with
a transient error that the resilience layer (retry policies, failover
routers) already knows how to handle, which beats the pool spinning.

Pool telemetry lives in a metrics registry (default: the process-global
one): gauge ``client.pool_in_use``, histogram ``client.checkout_wait``,
counters ``client.checkouts`` / ``client.checkout_timeouts`` /
``client.unhealthy_checkouts``.

Wall-clock time is correct here (unlike the simulation layers): the
timeout bounds how long a *real* thread blocks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional

from repro.client.connection import Connection
from repro.common.locks import condition
from repro.errors import ClientError, ConnectionLostError, OverloadError, PoolTimeoutError

#: Checkout-wait histogram buckets (seconds): sub-millisecond uncontended
#: checkouts up through multi-second waits near the timeout.
WAIT_BUCKETS = (0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


class ConnectionPool:
    """A bounded pool of :class:`~repro.client.connection.Connection`."""

    def __init__(
        self,
        connect: Callable[[], Connection],
        size: int = 8,
        checkout_timeout: float = 5.0,
        health_check: bool = True,
        registry: Optional[Any] = None,
        max_waiters: Optional[int] = None,
        admission: Optional[Any] = None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, not {size}")
        if max_waiters is not None and max_waiters < 0:
            raise ValueError(f"max_waiters must be >= 0, not {max_waiters}")
        self._connect = connect
        self.size = size
        self.checkout_timeout = checkout_timeout
        self.health_check = health_check
        #: Bounded checkout queue (PR 9): with ``max_waiters`` set, a
        #: checkout that would become waiter number ``max_waiters + 1``
        #: is shed immediately with transient ``OverloadError`` instead
        #: of joining an ever-deeper queue to time out later. ``None``
        #: keeps the pre-PR-9 behavior (bounded only by the timeout).
        self.max_waiters = max_waiters
        #: Optional token-bucket admission gate consulted before any
        #: pool bookkeeping (repro.resilience.overload).
        self.admission = admission
        if registry is None:
            from repro.obs.metrics import global_registry

            registry = global_registry()
        self._in_use_gauge = registry.gauge("client.pool_in_use")
        self._wait_histogram = registry.histogram("client.checkout_wait", buckets=WAIT_BUCKETS)
        self._checkouts = registry.counter("client.checkouts")
        self._timeouts = registry.counter("client.checkout_timeouts")
        self._unhealthy = registry.counter("client.unhealthy_checkouts")
        self._shed_counter = registry.counter("overload.pool_shed")
        self._waiters_gauge = registry.gauge("overload.pool_waiters")
        self._cond = condition()
        self._idle: List[Connection] = []
        self._created = 0  # connections alive (idle + checked out)
        self._checked_out = 0
        self._waiters = 0
        self.shed = 0
        self.closed = False

    # -- checkout / release --------------------------------------------------

    def acquire(self, timeout: Optional[float] = None) -> Connection:
        """Check out a connection (health-checked); see module docstring.

        With an admission controller attached, checkout must be admitted
        first; with ``max_waiters`` set, a checkout finding the waiter
        queue full is shed immediately — both fail fast with transient
        :class:`~repro.errors.OverloadError` rather than queuing.
        """
        if self.admission is not None:
            self.admission.admit("pool checkout")
        budget = self.checkout_timeout if timeout is None else timeout
        started = time.perf_counter()
        connection: Optional[Connection] = None
        must_create = False
        waiting = False
        with self._cond:
            if self.closed:
                raise ClientError("pool is closed")
            try:
                while True:
                    if self._idle:
                        connection = self._idle.pop()
                        break
                    if self._created < self.size:
                        # Reserve the slot now; create outside the lock.
                        self._created += 1
                        must_create = True
                        break
                    if (
                        not waiting
                        and self.max_waiters is not None
                        and self._waiters >= self.max_waiters
                    ):
                        self.shed += 1
                        self._shed_counter.inc()
                        raise OverloadError(
                            f"pool overloaded: {self._waiters} checkouts already "
                            f"waiting (max_waiters={self.max_waiters}, "
                            f"size={self.size})"
                        )
                    if not waiting:
                        waiting = True
                        self._waiters += 1
                        self._waiters_gauge.set(float(self._waiters))
                    remaining = budget - (time.perf_counter() - started)
                    if remaining <= 0 or not self._cond.wait(remaining):
                        self._timeouts.inc()
                        raise PoolTimeoutError(
                            f"no connection available within {budget:.3f}s "
                            f"(size={self.size}, in_use={self._checked_out})"
                        )
                    if self.closed:
                        raise ClientError("pool is closed")
            finally:
                if waiting:
                    self._waiters -= 1
                    self._waiters_gauge.set(float(self._waiters))
        try:
            if must_create:
                connection = self._connect()
            elif self.health_check and not connection.healthy():
                # Replace the unhealthy connection once; if the fresh one
                # is unhealthy too (whole target down), hand it out anyway
                # and let the resilience layer deal with the failure.
                self._unhealthy.inc()
                connection.close()
                connection = self._connect()
        except BaseException:
            with self._cond:
                self._created -= 1
                self._cond.notify()
            raise
        self._wait_histogram.observe(time.perf_counter() - started)
        self._checkouts.inc()
        with self._cond:
            self._checked_out += 1
            self._in_use_gauge.set(float(self._checked_out))
        return connection

    def release(self, connection: Connection) -> None:
        """Return a connection to the pool.

        Any transaction still open is rolled back — a pooled connection
        must never carry transaction state (or an exclusive database
        latch) into its next checkout. When the transport died under the
        rollback the server's handler does it on its side and this end is
        dropped; a rollback failing any other way raises — it leaks a latch.
        """
        reusable = False
        try:
            try:
                connection.rollback()
            except ConnectionLostError:
                connection.close()
            reusable = not connection.closed
        finally:
            with self._cond:
                self._checked_out = max(0, self._checked_out - 1)
                self._in_use_gauge.set(float(self._checked_out))
                if reusable and not self.closed:
                    self._idle.append(connection)
                else:
                    self._created = max(0, self._created - 1)
                self._cond.notify()
        if self.closed:
            connection.close()

    @contextmanager
    def connection(self, timeout: Optional[float] = None) -> Iterator[Connection]:
        """``with pool.connection() as conn:`` checkout/release block."""
        connection = self.acquire(timeout=timeout)
        try:
            yield connection
        finally:
            self.release(connection)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close the pool and every idle connection. Connections checked
        out at close time are closed on release."""
        with self._cond:
            self.closed = True
            idle, self._idle = self._idle, []
            self._created -= len(idle)
            self._cond.notify_all()
        for connection in idle:
            connection.close()

    # -- introspection -----------------------------------------------------------

    @property
    def in_use(self) -> int:
        return self._checked_out

    @property
    def idle(self) -> int:
        return len(self._idle)

    def __repr__(self) -> str:
        return (
            f"<ConnectionPool size={self.size} in_use={self._checked_out} "
            f"idle={len(self._idle)} closed={self.closed}>"
        )
