"""Admission control and retry budgets: the overload-protection core.

Two primitives, both deliberately built from *scalar* state only (no
queues, no lists — the ``overload-bounded`` selflint rule enforces it):
instead of holding excess requests in a real queue, the controller keeps
a token-bucket *debt* whose depth, divided by the service rate, is the
virtual queueing delay an admitted request would see. Shedding decisions
are made against that delay, CoDel-style:

* while the projected delay sits at or below ``queue_delay_target``, every
  request is admitted and the bucket simply drains;
* when the delay first exceeds the target, requests keep being admitted
  (into debt) for one ``interval`` — transient bursts ride through;
* if the delay is *still* above target after the interval, the controller
  sheds one request and shortens the next grace window by ``1/sqrt(n)``
  (CoDel's control law), so sustained overload sheds at an accelerating
  pace until the delay recovers;
* a hard bound (``hard_factor`` x target) always sheds, which is what
  keeps the virtual queue depth bounded no matter the offered load.

Shed requests fail fast with :class:`~repro.errors.OverloadError` —
transient, raised before any statement effects, so callers may degrade
(scatter slice to the backend, stale read from a cache) or retry later.

:class:`RetryBudget` is the companion guard on the retry path: each live
attempt deposits ``ratio`` of a token, each retry spends a whole one, so
retries can never exceed ~``ratio`` of live traffic during a brownout —
the classic retry-storm limiter.

All time is virtual; all state is O(1).
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.common.locks import mutex
from repro.common.witness import LEVEL_LEAF, annotate_lock
from repro.errors import OverloadError


def _leaf_mutex(name: str):
    """A mutex pinned at LEAF level in the lock-witness hierarchy.

    Both gates here are consulted from deep inside query execution —
    admission from the server's execute paths, the retry budget from
    ``ServerLink._invoke`` while the caller still holds database latches
    and table locks — so their mutexes must sit *below* the engine's
    locks. Neither is ever held across a call out of this module, so
    LEAF is safe.
    """
    lock = mutex()
    annotate_lock(lock, f"resilience.{name}", LEVEL_LEAF)
    return lock


class AdmissionController:
    """Token-bucket + virtual-bounded-queue admission gate.

    ``rate`` is the sustained admission rate (requests per virtual
    second), ``burst`` the bucket capacity. ``queue_delay_target`` is the
    CoDel target for the projected queueing delay; ``interval`` the grace
    window sustained overload gets before shedding starts.
    """

    def __init__(
        self,
        clock: Any,
        rate: float = 100.0,
        burst: float = 20.0,
        queue_delay_target: float = 0.1,
        interval: float = 0.5,
        hard_factor: float = 4.0,
        name: str = "server",
        registry: Optional[Any] = None,
    ):
        if rate <= 0:
            raise ValueError(f"admission rate must be > 0, not {rate}")
        self.clock = clock
        self.rate = float(rate)
        self.burst = float(burst)
        self.queue_delay_target = float(queue_delay_target)
        self.interval = float(interval)
        self.hard_factor = float(hard_factor)
        self.name = name
        self._mutex = _leaf_mutex(f"admission.{name}")
        self._tokens = self.burst
        self._refilled_at = clock.now()
        # CoDel episode state: when the projected delay first went above
        # target, and how many sheds the current episode has performed
        # (drives the 1/sqrt(n) shortening of the grace window).
        self._above_since: Optional[float] = None
        self._sheds_in_episode = 0
        self._next_shed_at: Optional[float] = None
        # Plain counters (always on) + optional registry instruments.
        self.admitted = 0
        self.shed = 0
        self._registry = registry
        if registry is not None:
            labels = {"gate": name}
            self._admitted_counter = registry.counter("overload.admitted", labels=labels)
            self._shed_counter = registry.counter("overload.shed", labels=labels)
            self._delay_gauge = registry.gauge("overload.queue_delay", labels=labels)
            self._depth_gauge = registry.gauge("overload.queue_depth", labels=labels)
        else:
            self._admitted_counter = None
            self._shed_counter = None
            self._delay_gauge = None
            self._depth_gauge = None

    # -- bucket mechanics --------------------------------------------------

    def _refill(self, now: float) -> None:
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._refilled_at = now

    @property
    def queue_depth(self) -> float:
        """The virtual queue depth in requests (the bucket's debt)."""
        return max(0.0, -self._tokens)

    # -- the gate ----------------------------------------------------------

    def try_admit(self) -> bool:
        """Admit or shed one request; False means shed."""
        with self._mutex:
            now = self.clock.now()
            self._refill(now)
            delay = max(0.0, (1.0 - self._tokens) / self.rate)
            decision = self._decide(now, delay)
            if decision:
                self._tokens -= 1.0
                self.admitted += 1
            else:
                self.shed += 1
            self._publish(delay)
            return decision

    def _decide(self, now: float, delay: float) -> bool:
        if delay <= self.queue_delay_target:
            # Under target: admit and close any overload episode.
            self._above_since = None
            self._sheds_in_episode = 0
            self._next_shed_at = None
            return True
        if delay > self.queue_delay_target * self.hard_factor:
            # Hard bound: the virtual queue may never grow past this,
            # regardless of where the episode's control law stands.
            return False
        if self._above_since is None:
            # First crossing: start the grace interval, admit into debt.
            self._above_since = now
            self._sheds_in_episode = 0
            self._next_shed_at = now + self.interval
            return True
        if self._next_shed_at is not None and now < self._next_shed_at:
            return True
        # Sustained overload: shed, and shorten the next window (CoDel).
        self._sheds_in_episode += 1
        self._next_shed_at = now + self.interval / math.sqrt(
            1 + self._sheds_in_episode
        )
        return False

    def _publish(self, delay: float) -> None:
        if self._delay_gauge is not None:
            self._delay_gauge.set(delay)
        if self._depth_gauge is not None:
            self._depth_gauge.set(self.queue_depth)

    def admit(self, what: str = "request") -> None:
        """Admit one request or raise :class:`OverloadError`."""
        if self.try_admit():
            if self._admitted_counter is not None:
                self._admitted_counter.inc()
            return
        if self._shed_counter is not None:
            self._shed_counter.inc()
        raise OverloadError(
            f"overloaded: {self.name} shed {what} "
            f"(queue depth {self.queue_depth:.1f}, "
            f"delay target {self.queue_delay_target:.3f}s)"
        )

    def __repr__(self) -> str:
        return (
            f"<AdmissionController {self.name} rate={self.rate} "
            f"admitted={self.admitted} shed={self.shed}>"
        )


class RetryBudget:
    """A token bucket capping retries to ~``ratio`` of live traffic.

    Every first attempt deposits ``ratio`` tokens (:meth:`on_attempt`);
    every retry withdraws one (:meth:`try_spend`). During a brownout the
    deposit stream is what bounds the retry stream: retries cannot exceed
    ``ratio`` of attempts in steady state, so the retry layer stops
    amplifying load into a browning-out target. ``capacity`` is the
    opening balance and cap, letting isolated failures retry freely.
    """

    def __init__(self, ratio: float = 0.1, capacity: float = 10.0):
        self.ratio = float(ratio)
        self.capacity = float(capacity)
        self._tokens = float(capacity)
        self._mutex = _leaf_mutex("retry_budget")
        self.spent = 0
        self.exhaustions = 0

    @property
    def tokens(self) -> float:
        return self._tokens

    def on_attempt(self) -> None:
        """Record one live (first) attempt: deposit ``ratio`` tokens."""
        with self._mutex:
            self._tokens = min(self.capacity, self._tokens + self.ratio)

    def try_spend(self) -> bool:
        """Withdraw one token for a retry; False when the budget is dry."""
        with self._mutex:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent += 1
                return True
            self.exhaustions += 1
            return False

    def __repr__(self) -> str:
        return f"<RetryBudget tokens={self._tokens:.2f} spent={self.spent}>"
