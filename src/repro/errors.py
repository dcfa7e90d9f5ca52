"""Exception hierarchy for the repro engine.

Every error raised on a deliberate code path derives from :class:`ReproError`
so callers can catch engine failures without swallowing programming errors.
The hierarchy mirrors the major subsystems: SQL frontend, catalog, execution,
transactions, replication and distributed queries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro database engine.

    ``transient`` marks failures that may succeed on retry (an unreachable
    link, a crashed server mid-restart) as opposed to deterministic ones
    (constraint violations, parse errors). The resilience layer's retry
    policies and the failover router key off this flag via
    :func:`is_transient`.
    """

    transient = False


class SqlError(ReproError):
    """Base class for errors in the SQL frontend (lexing, parsing, binding)."""


class LexError(SqlError):
    """Raised when the lexer encounters an invalid token.

    Carries the 1-based ``line`` and ``column`` of the offending character.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(SqlError):
    """Raised when the parser cannot derive a statement from the token stream."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class BindError(SqlError):
    """Raised when names in a statement cannot be resolved against the catalog."""


class TypeCheckError(SqlError):
    """Raised when an expression is not well typed (e.g. ``'abc' + 1``)."""


class CatalogError(ReproError):
    """Raised for catalog violations: duplicate or missing objects."""


class PermissionError_(ReproError):
    """Raised when the session principal lacks permission on an object.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ConstraintError(ReproError):
    """Raised when a DML statement violates a declared constraint."""


class ExecutionError(ReproError):
    """Raised for runtime failures while executing a physical plan."""


class TransactionError(ReproError):
    """Raised for invalid transaction state transitions or aborts."""


class TransactionLostError(TransactionError):
    """Raised, once, to a session whose explicit transaction ended without
    it: the server it began on crashed, rolling it back (nothing of it is
    committed) and releasing its latch hold. *Not* transient — re-sending
    the statement cannot bring the earlier ones back; ``ROLLBACK`` and
    ``close()`` on such a session are clean no-ops instead."""


class OptimizerError(ReproError):
    """Raised when the optimizer cannot produce a plan for a valid query."""


class ReplicationError(ReproError):
    """Raised for replication configuration or propagation failures."""


class DistributedError(ReproError):
    """Raised for linked-server and distributed-transaction failures."""


class PreparedStatementError(DistributedError):
    """Raised when a prepared statement handle is unknown on the target
    server (e.g. dropped or never created). Links recover by transparently
    re-preparing the statement text."""


class LinkUnavailableError(DistributedError):
    """Raised when a linked-server call cannot reach its target.

    Transient: the fault injector raises it *before* the remote call runs,
    and real outages clear when the link recovers, so retrying cannot
    double-apply remote effects.
    """

    transient = True


class ServerUnavailableError(DistributedError):
    """Raised when a crashed (or not-yet-restarted) server is called.

    Raised at the entry points (``execute``/``prepare_sql``/
    ``execute_prepared``) before any work happens, so callers may safely
    retry or reroute the whole statement. Transient by definition: the
    server may come back.
    """

    transient = True


class CircuitOpenError(DistributedError):
    """Raised when a circuit breaker rejects a call without attempting it.

    Deliberately *not* transient: the breaker exists to stop retry storms
    against a down target, so retry policies fail fast on it. The failover
    router treats it as a reroute signal instead.
    """


class OverloadError(ReproError):
    """Raised when admission control sheds a request instead of queuing it.

    Transient by design: the overload clears as load drains, so callers
    may retry (the retry *budget* keeps shed-triggered retries from
    amplifying the very overload being shed). Raised before any statement
    effects — at the admission gate — so a shed statement can safely run
    elsewhere (a scatter slice degrading to the backend) or re-run later.
    """

    transient = True


class DeadlineExceededError(ReproError):
    """Raised when a statement's end-to-end deadline budget is exhausted.

    Deliberately *not* transient: the budget is gone, so retrying under
    the same deadline cannot help — retry policies and failover routers
    fail fast and surface the miss to the caller, who owns the deadline.
    """


class NetworkError(ReproError):
    """Base class for wire-protocol and transport failures (``repro.net``)."""


class ConnectionLostError(NetworkError):
    """Raised when the TCP connection to a wire server drops mid-call.

    Transient: the client re-dials on the next call, so retry policies
    may re-send the request. The wire protocol only marks *reads* as
    safe to retry this way — a dropped response after a write may have
    applied; callers who need exactly-once writes go through the DTC.
    """

    transient = True


class ProtocolError(NetworkError):
    """Raised on malformed or unexpected wire frames (framing violations,
    unknown opcodes, oversized frames). Deliberately *not* transient:
    a peer speaking garbage will keep speaking garbage."""


class HandshakeError(NetworkError):
    """Raised when the wire handshake is rejected: protocol version
    mismatch, or a database the server does not serve. Not transient —
    reconnecting with the same HELLO cannot succeed."""


class RemoteError(ReproError):
    """A server-side error reconstructed from a wire error frame whose
    class could not be rebuilt locally (custom constructor signature,
    unknown name). Carries the original class name in ``kind`` and the
    original ``transient`` bit as an instance attribute, so retry and
    failover logic behave identically across the wire."""

    def __init__(self, kind: str, message: str, transient: bool = False):
        super().__init__(f"[{kind}] {message}")
        self.kind = kind
        self.transient = transient


class ClientError(ReproError):
    """Raised for client-API misuse (``repro.client``): operations on a
    closed connection or cursor, fetches before any execute."""


class DsnError(ClientError):
    """Raised when a connection DSN string cannot be parsed or names an
    unknown in-process target. The message pinpoints the offending part
    (scheme, host, port, database, query parameter)."""


class PoolTimeoutError(ClientError):
    """Raised when a pool checkout cannot get a connection in time.

    Transient: the pool may free up; retrying (or shedding load) is the
    correct response.
    """

    transient = True


class PartialEffectError(ReproError):
    """Raised when a call failed after one of its statements committed.

    An autocommit write, a forwarded statement, a ``COMMIT`` or DDL of the
    same batch already took effect, so re-running the call would apply it
    twice. The error that ended the call is kept as ``__cause__``; this
    one is *not* transient and none of the classes retry loops, failover
    routers or a cache's fallbacks re-run a call for, so none of them do.
    """


def is_transient(exc: BaseException) -> bool:
    """True when ``exc`` is a retry-safe transient failure."""
    return bool(getattr(exc, "transient", False))


def invites_rerun(exc: BaseException) -> bool:
    """True when some layer would re-run the call ``exc`` ended: a retry
    loop (transient errors), a failover router or a linked server's
    re-prepare (:class:`DistributedError`), a minimal-shadow cache's
    forward to the backend (:class:`BindError`, :class:`CatalogError`)."""
    return is_transient(exc) or isinstance(exc, (DistributedError, BindError, CatalogError))


class AnalysisError(ReproError):
    """A structured static-analysis diagnostic (``repro.analysis``).

    Doubles as a value and an exception: the analysis passes collect
    instances into diagnostic lists, and the checked-execution hook raises
    the first error-severity instance when a freshly optimized plan
    violates a structural invariant.
    """

    def __init__(
        self,
        rule: str,
        message: str,
        severity: str = "error",
        location: str = "",
    ):
        where = f" at {location}" if location else ""
        super().__init__(f"[{rule}] {message}{where}")
        self.rule = rule
        self.message = message
        self.severity = severity
        self.location = location

    @property
    def is_error(self) -> bool:
        return self.severity == "error"
