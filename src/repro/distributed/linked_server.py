"""Linked servers: SQL Server's mechanism for distributed queries.

A :class:`ServerLink` connects one server to another by name. Remote
subexpressions arrive as *textual SQL* (the optimizer's DataTransfer
boundary renders plan fragments back to text) and are re-parsed and
re-optimized by the target server — matching the paper's observation that
plans cannot be shipped, only text.

The text travels once (paper §4.3, parameterized remote queries):
:meth:`ServerLink.prepare` registers it on the target and returns a
:class:`RemoteStatementHandle`; executions ship only the handle id and
the parameter values. Everything on the link goes this way: remote
subexpressions through the handle itself, forwarded DML and forwarded
``EXEC`` calls (arguments evaluated by the caller and sent as parameters)
through :meth:`ServerLink.execute_statement_text`, the one
forwarded-statement entry, which executes by the text's shared handle.
Handles survive remote schema changes (the target re-prepares
transparently) and remote handle loss (the link re-prepares from its own
text copy).

Every link is built by :meth:`LinkedServerRegistry.register` with the
owning server's tracer, clock and metrics registry, so each remote call
runs under the retry policy, the circuit breaker and the retry budget
(and, inside a requested trace, a client-side span). The link also
tracks simple traffic counters (queries, statements, prepares, prepared
executions) used by tests and the cluster simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.lru import LRUCache
from repro.common.witness import active_witness
from repro.engine.results import Result
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    DistributedError,
    PreparedStatementError,
    ReproError,
    is_transient,
)
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import current_deadline
from repro.resilience.overload import RetryBudget
from repro.resilience.retry import RetryPolicy, default_link_policy


class RemoteStatementHandle:
    """The client-side half of a prepared remote statement.

    Lazily binds to a server-side handle id on first execution, and
    re-binds transparently if the target reports the handle unknown
    (e.g. it was closed); schema-version staleness is handled on the
    target side, invisible to the client.
    """

    __slots__ = ("link", "sql", "handle_id", "prepares")

    def __init__(self, link: "ServerLink", sql: str):
        self.link = link
        self.sql = sql
        self.handle_id: Optional[int] = None
        self.prepares = 0

    def _ensure_prepared(self) -> int:
        if self.handle_id is None:
            self.handle_id = self.link.server.prepare_sql(self.sql, self.link.database)
            self.prepares += 1
            self.link.prepares += 1
        return self.handle_id

    def execute(self, params: Optional[Dict[str, Any]] = None) -> Result:
        """Execute by handle; returns the full result."""
        self.link.prepared_executions += 1
        with self.link._span("remote.prepared", handle=self.handle_id):
            return self.link._invoke("prepared", lambda: self._execute_once(params))

    def _execute_once(self, params: Optional[Dict[str, Any]]) -> Result:
        handle_id = self._ensure_prepared()
        try:
            return self.link.server.execute_prepared(handle_id, params)
        except PreparedStatementError:
            # The target lost the handle; re-prepare from our text copy.
            self.handle_id = None
            handle_id = self._ensure_prepared()
            return self.link.server.execute_prepared(handle_id, params)

    def execute_rows(self, params: Optional[Dict[str, Any]] = None) -> List[Tuple]:
        """Execute by handle; returns the result rows (RemoteQueryOp).

        Counts toward ``queries_shipped`` so traffic accounting matches
        the text path — a by-handle execution is still one round trip,
        just a much lighter one.
        """
        self.link.queries_shipped += 1
        return self.execute(params).rows

    def close(self) -> None:
        if self.handle_id is not None:
            self.link.server.close_prepared(self.handle_id)
            self.handle_id = None

    def __repr__(self) -> str:
        text = self.sql if len(self.sql) <= 40 else self.sql[:37] + "..."
        return f"<RemoteStatementHandle {self.link.name}:{self.handle_id} {text!r}>"


class ServerLink:
    """A named link to another server (possibly a specific database)."""

    def __init__(
        self,
        name: str,
        server,
        database: Optional[str],
        tracer,
        clock,
        metrics,
    ):
        self.name = name
        self.server = server
        self.database = database
        self.tracer = tracer
        self.queries_shipped = 0
        self.statements_shipped = 0
        self.prepares = 0
        self.prepared_executions = 0
        self.retries = 0
        # Resilience wiring, on the owning server's virtual clock
        # (backoff must advance it) and metrics registry.
        self.clock = clock
        self._metrics = metrics
        self.retry_policy: RetryPolicy = default_link_policy(name)
        self.breaker = CircuitBreaker(clock, name=name, registry=metrics)
        # Retry budget (PR 9): each first attempt deposits ~10% of a
        # token, each retry spends one, so during a brownout retries are
        # capped at ~10% of live traffic instead of multiplying it.
        self.retry_budget = RetryBudget()
        # Fault-injection hook (repro.faults). None means every guard
        # below is a single attribute check — a true no-op.
        self.injector = None
        # Decided once, like the locks themselves (repro.common.locks):
        # remote calls record cross-server nesting only on a link built
        # while the witness was active.
        self._witnessed = active_witness() is not None
        # sql text -> RemoteStatementHandle, so every caller preparing the
        # same text (RemoteQueryOps of cached plans, forwarded DML) shares
        # one remote handle. Evicted handles close their server-side half.
        self._handles: LRUCache = LRUCache(256, on_evict=lambda handle: handle.close())

    def _span(self, name: str, **attributes):
        """Client-side span for one remote call, inside a requested trace.

        The target server opens its own spans inside; because the call is
        in-process the context variable makes them children of this one,
        so one exported trace covers both tiers.
        """
        return self.tracer.child_span(name, target=self.name, **attributes)

    def _invoke(self, kind: str, fn: Callable[[], Any]) -> Any:
        """Run one remote call under the link's resilience machinery.

        Order matters: the deadline gates first (an exhausted budget must
        not spend a remote hop), the breaker next (an open breaker rejects
        without touching the target), the fault injector after that (so
        injected faults land *before* the remote call has any effect —
        the property that makes retrying non-idempotent statements safe),
        then the call itself. Transient failures back off on the virtual
        clock — clamped to the deadline's remaining budget and charged
        against the link's retry budget — and re-enter the loop;
        deterministic errors propagate untouched and leave the breaker
        alone.
        """
        policy = self.retry_policy
        breaker = self.breaker
        budget = self.retry_budget
        deadline = current_deadline()
        started = self.clock.now()
        attempt = 1
        budget.on_attempt()
        while True:
            if deadline is not None and deadline.expired():
                self._metrics.counter(
                    "overload.deadline_misses", labels={"link": self.name}
                ).inc()
                raise DeadlineExceededError(
                    f"deadline exceeded before remote {kind} call on link "
                    f"{self.name!r} (attempt {attempt})"
                )
            if not breaker.allow():
                raise CircuitOpenError(f"circuit open for linked server {self.name!r}")
            try:
                if self.injector is not None:
                    self.injector.on_call(f"link:{self.name}:{kind}", link=self, kind=kind)
                witness = active_witness() if self._witnessed else None
                if witness is None:
                    result = fn()
                else:
                    # Cross-server nesting: every lock the remote tier
                    # takes during this call sits strictly below the
                    # locks the calling tier already holds (the paper's
                    # one-directional cache -> backend flow).
                    with witness.nesting():
                        result = fn()
            except ReproError as exc:
                if not is_transient(exc):
                    raise
                breaker.record_failure()
                delay = policy.next_delay(
                    attempt,
                    started,
                    self.clock.now(),
                    budget=deadline.remaining() if deadline is not None else None,
                )
                if delay is None:
                    raise
                if not budget.try_spend():
                    # Retry budget dry: retrying now would amplify the
                    # brownout; surface the transient error instead.
                    self._metrics.counter(
                        "overload.retry_budget_exhausted", labels={"link": self.name}
                    ).inc()
                    raise
                self.retries += 1
                self._metrics.counter(
                    "resilience.retries", labels={"link": self.name}
                ).inc()
                self.clock.advance(delay)
                attempt += 1
                continue
            breaker.record_success()
            return result

    def execute_remote_sql(self, sql: str, params: Optional[Dict[str, Any]] = None) -> List[Tuple]:
        """Execute a query remotely; returns its rows.

        Used by RemoteQueryOp: the remote side re-parses and re-optimizes.
        """
        self.queries_shipped += 1
        with self._span("remote.sql"):
            result = self._invoke(
                "query",
                lambda: self.server.execute(sql, params=params, database=self.database),
            )
        return result.rows

    def execute_statement_text(
        self, sql: str, params: Optional[Dict[str, Any]] = None
    ) -> Result:
        """Execute a forwarded statement (DML / EXEC); returns full result.

        The one forwarded-statement entry: the text travels once, as the
        shared prepared handle for ``sql``, and each call ships the handle
        id and ``params`` under a single ``statement`` invocation (one
        span, one fault site, one retry loop).
        """
        self.statements_shipped += 1
        self.prepared_executions += 1
        handle = self.prepare(sql)
        with self._span("remote.statement", handle=handle.handle_id):
            return self._invoke("statement", lambda: handle._execute_once(params))

    def prepare(self, sql: str) -> RemoteStatementHandle:
        """Return the (shared) prepared handle for ``sql`` on this link."""
        handle = self._handles.get(sql)
        if handle is None:
            handle = RemoteStatementHandle(self, sql)
            self._handles[sql] = handle
        return handle

    def peek_handle(self, sql: str) -> Optional[RemoteStatementHandle]:
        """The cached handle for ``sql``, if any (no allocation)."""
        return self._handles.get(sql)

    def close(self) -> None:
        """Close every prepared handle (releases the server-side halves)."""
        for handle in list(self._handles.values()):
            handle.close()
        self._handles.clear()


class LinkedServerRegistry:
    """The set of linked servers registered on one server."""

    def __init__(self, tracer, clock, metrics):
        self._links: Dict[str, ServerLink] = {}
        # The owning server's Tracer, handed to every link so remote
        # calls get client-side spans. Clock and metrics likewise flow to
        # each link's retry policy, breaker, and resilience counters.
        self.tracer = tracer
        self.clock = clock
        self.metrics = metrics

    def register(self, name: str, server, database: Optional[str] = None) -> ServerLink:
        """Register (or replace) a linked server under ``name``.

        Replacing closes the old link's prepared handles first —
        otherwise its LRU keeps the server-side halves alive with no
        client able to reach them (a handle leak on the target).
        """
        old = self._links.get(name.lower())
        if old is not None:
            old.close()
        link = ServerLink(
            name, server, database, tracer=self.tracer, clock=self.clock, metrics=self.metrics
        )
        self._links[name.lower()] = link
        return link

    def get(self, name: str) -> ServerLink:
        link = self._links.get(name.lower())
        if link is None:
            raise DistributedError(f"no linked server {name!r}")
        return link

    def names(self) -> List[str]:
        return list(self._links)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._links
