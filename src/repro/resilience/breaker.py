"""Per-link circuit breakers.

A breaker sits in front of a :class:`~repro.distributed.linked_server.ServerLink`
and converts a persistently-down target from retry storms (every call
burning a full backoff schedule) into instant
:class:`~repro.errors.CircuitOpenError` failures — the signal the
failover router reroutes on. State machine:

* **closed** — calls flow; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures; calls are
  rejected without touching the target until ``reset_timeout`` of
  virtual time elapses.
* **half-open** — exactly *one* probe call is allowed through; success
  closes the breaker, failure re-opens it (and restarts the timeout).

The half-open transition is thread-safe: when the reset timeout elapses,
concurrent callers race for the single probe slot under the breaker's
mutex — one wins and carries the probe, the losers are rejected with
``CircuitOpenError`` exactly as if the breaker were still open. Without
that gate every waiting thread would stampede the recovering target at
once, which is the failure mode half-open exists to prevent.

The current state is exported as the ``resilience.breaker_state`` gauge
(0 = closed, 1 = half-open, 2 = open) labelled by link name.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.common.locks import mutex
from repro.common.witness import LEVEL_LEAF, annotate_lock


class CircuitBreaker:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    _GAUGE_VALUE = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}

    def __init__(
        self,
        clock: Any,
        failure_threshold: int = 5,
        reset_timeout: float = 2.0,
        name: str = "",
        registry: Optional[Any] = None,
    ):
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.name = name
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.opens = 0
        self.rejections = 0
        # Guards state transitions (allow/record_*): the breaker is
        # consulted from link calls made *while engine locks are held*
        # (a cache's plan executing a RemoteQueryOp holds its latch and
        # table locks), so the lock is annotated at leaf level — strictly
        # below the engine hierarchy, never held across the remote call.
        self._mutex = mutex()
        annotate_lock(self._mutex, "resilience.breaker", LEVEL_LEAF)
        self._probe_in_flight = False
        self._registry = registry
        self._gauge = None
        if registry is not None:
            self._gauge = registry.gauge(
                "resilience.breaker_state", labels={"link": name or "?"}
            )
            self._gauge.set(0.0)

    def _set_state(self, state: str) -> None:
        self.state = state
        if self._gauge is not None:
            self._gauge.set(self._GAUGE_VALUE[state])

    def ready(self, now: Optional[float] = None) -> bool:
        """True when a call would be allowed to flow (or probe).

        Read-only: unlike :meth:`allow` it never transitions state, so
        health checks (the failover router's probe) can consult it
        without consuming the half-open probe slot.
        """
        if self.state != self.OPEN:
            return True
        if now is None:
            now = self.clock.now()
        assert self.opened_at is not None
        return now - self.opened_at >= self.reset_timeout

    def allow(self) -> bool:
        """Gate one call. False means reject with ``CircuitOpenError``.

        Thread-safe: in the open->half-open transition exactly one
        caller wins the probe slot; everyone else is rejected until the
        probe reports back through :meth:`record_success` /
        :meth:`record_failure`.
        """
        with self._mutex:
            if self.state == self.CLOSED:
                return True
            if self.state == self.OPEN:
                if not self.ready():
                    self.rejections += 1
                    return False
                self._set_state(self.HALF_OPEN)
                self._probe_in_flight = True
                return True
            # HALF_OPEN: the single probe slot is taken; reject until
            # its outcome is recorded.
            if self._probe_in_flight:
                self.rejections += 1
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._mutex:
            if self.state != self.CLOSED:
                self._set_state(self.CLOSED)
            self._probe_in_flight = False
            self.failures = 0

    def record_failure(self) -> None:
        with self._mutex:
            self.failures += 1
            self._probe_in_flight = False
            if self.state == self.HALF_OPEN or self.failures >= self.failure_threshold:
                self._trip()

    def _trip(self) -> None:
        # Caller holds the mutex.
        if self.state != self.OPEN:
            self.opens += 1
            if self._registry is not None:
                self._registry.counter(
                    "resilience.breaker_opens", labels={"link": self.name or "?"}
                ).inc()
        self._set_state(self.OPEN)
        self.opened_at = self.clock.now()

    def reset(self) -> None:
        """Force-close (administrative reset; tests)."""
        with self._mutex:
            self.failures = 0
            self.opened_at = None
            self._probe_in_flight = False
            self._set_state(self.CLOSED)

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.name!r} {self.state} failures={self.failures}>"
