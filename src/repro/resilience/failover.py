"""Transparent cache→backend failover at the application tier.

The paper's availability claim is that a mid-tier cache is an
*optimization*, never a single point of failure: every cached table and
view also exists on the backend, so any statement a cache can run, the
backend can run too. :class:`FailoverRouter` operationalizes that — it
is an execution target (``execute(sql, params=None, session=None)``, see
:mod:`repro.client.connection`) that routes each statement to the
primary (a cache) while healthy, to the fallback (the backend) while
not. It keeps no sessions: the caller's session travels with the
statement to whichever target runs it, so principal and session variables
survive a mid-conversation reroute by construction.

State machine::

    NORMAL --(transient failure from primary)--> FAILED_OVER
    FAILED_OVER --(failback_threshold consecutive healthy probes,
                   one per probe_interval)--> NORMAL

Failback has hysteresis: a single passing probe is not proof of
recovery (a flapping link passes one probe per flap and would bounce
traffic between targets on every cycle), so the router requires
``failback_threshold`` *consecutive* healthy probes — each a full
``probe_interval`` apart — before routing traffic back. One unhealthy
probe resets the streak.

Failures that trigger failover are exactly the reroutable ones: the
primary server is down (``ServerUnavailableError``), its link to the
backend cannot be reached even after retries (``LinkUnavailableError``),
or the link's breaker is open (``CircuitOpenError``). All three are
raised *before* any statement effects, so re-running the statement on
the fallback executes it exactly once. Deterministic errors (constraint
violations, parse errors) propagate to the caller unchanged from
whichever target ran the statement.

A session inside an explicit transaction is never rerouted: its
statements go to the server the transaction began on (its *home*, via
:func:`~repro.client.connection.execute_home`) and nowhere else. If that
server has crashed, the session hears
:class:`~repro.errors.TransactionLostError` from it instead of sending
``COMMIT`` to a target that never saw ``BEGIN``.

Probing is virtual-time based: while failed over, at most one health
check per ``probe_interval``; a passing check routes traffic back (where
the link breaker's half-open machinery takes over if the recovery was
illusory).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

# The module, not its names: the engine imports this package while
# ``repro.client.connection`` (which imports the engine) is still loading.
from repro.client import connection
from repro.errors import CircuitOpenError, LinkUnavailableError, ServerUnavailableError
from repro.resilience.deadline import check_deadline

_REROUTE_ERRORS = (LinkUnavailableError, ServerUnavailableError, CircuitOpenError)


class FailoverRouter:
    NORMAL = "normal"
    FAILED_OVER = "failed_over"

    def __init__(
        self,
        primary: Any,
        fallback: Any,
        clock: Any,
        primary_database: Optional[str] = None,
        fallback_database: Optional[str] = None,
        probe_interval: float = 1.0,
        failback_threshold: int = 2,
        registry: Optional[Any] = None,
    ):
        self.primary = primary
        self.fallback = fallback
        self.primary_database = primary_database
        self.fallback_database = fallback_database
        self.clock = clock
        self.probe_interval = probe_interval
        if failback_threshold < 1:
            raise ValueError(f"failback_threshold must be >= 1, not {failback_threshold}")
        self.failback_threshold = failback_threshold
        self._healthy_probes = 0
        self.state = self.NORMAL
        self.failovers = 0
        self.failbacks = 0
        self.rerouted_statements = 0
        self._next_probe = 0.0
        self._registry = registry
        self._gauge = None
        if registry is not None:
            self._gauge = registry.gauge("resilience.failover_state")
            self._gauge.set(0.0)

    # ------------------------------------------------------------------
    @property
    def server(self) -> Any:
        """The engine server behind the primary.

        The TPC-W driver binds its metrics registry and tracer through
        ``connection.server``; anchoring that to the primary keeps one
        coherent observability stream across failovers.
        """
        return connection.engine_of(self.primary)

    # ------------------------------------------------------------------
    def execute(
        self, sql: str, params: Optional[Dict[str, Any]] = None, session: Any = None
    ) -> Any:
        check_deadline("failover routing")
        if session is not None and session.in_transaction:
            return connection.execute_home(sql, params, session)
        if self.state == self.FAILED_OVER:
            now = self.clock.now()
            if now >= self._next_probe:
                if self.primary.healthy():
                    self._healthy_probes += 1
                    if self._healthy_probes >= self.failback_threshold:
                        self._fail_back()
                else:
                    self._healthy_probes = 0
                self._next_probe = now + self.probe_interval
        if self.state == self.NORMAL:
            try:
                return connection.execute_on(
                    self.primary, self.primary_database, sql, params, session
                )
            except _REROUTE_ERRORS:
                self._fail_over()
        self.rerouted_statements += 1
        return connection.execute_on(self.fallback, self.fallback_database, sql, params, session)

    # ------------------------------------------------------------------
    def _fail_over(self) -> None:
        self.state = self.FAILED_OVER
        self.failovers += 1
        self._healthy_probes = 0
        self._next_probe = self.clock.now() + self.probe_interval
        if self._registry is not None:
            self._registry.counter("resilience.failovers").inc()
        if self._gauge is not None:
            self._gauge.set(1.0)

    def _fail_back(self) -> None:
        self.state = self.NORMAL
        self.failbacks += 1
        self._healthy_probes = 0
        if self._registry is not None:
            self._registry.counter("resilience.failbacks").inc()
        if self._gauge is not None:
            self._gauge.set(0.0)

    def __repr__(self) -> str:
        return f"<FailoverRouter {self.state} failovers={self.failovers}>"
