"""The blocking wire client: a socket-backed execution target.

:class:`WireConnection` speaks the :mod:`repro.net.protocol` frames over
one TCP socket and presents the same execution-target surface the client
facade already binds to (``execute`` / ``healthy`` / ``name``), so
:class:`~repro.client.connection.Connection`,
:class:`~repro.client.pool.ConnectionPool` and
:class:`~repro.resilience.failover.FailoverRouter` work over real sockets
unchanged. Differences from an in-process target, all deliberate:

* ``remote_session = True`` (only here) — the session lives server-side;
  the facade must consult :attr:`in_transaction` (mirrored from RESULT
  headers, cleared by ``TransactionLostError``), not its local session.
* :attr:`clock` is a wall clock (``time.monotonic``), because across a
  real network hop there is no shared virtual clock. Client-side
  deadline scopes measure wall seconds; the *remaining* budget ships in
  each request header and the server re-anchors it on its own clock.
* A dropped connection surfaces as a transient
  :class:`~repro.errors.ConnectionLostError`; the next call transparently
  re-dials. Only the *caller* decides whether to retry the failed call
  itself — reads are safe, writes go through a retry policy or the DTC.

There is no client-side prepare: a request is a text plus parameters,
and the server's parse cache makes a repeated text as cheap as a handle
(see :mod:`repro.net.protocol`).
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional

from repro.engine.results import Result
from repro.errors import ClientError, ConnectionLostError, TransactionLostError
from repro.net import protocol
from repro.obs.metrics import global_registry
from repro.obs.tracing import active_span
from repro.resilience.deadline import remaining_budget


class _WallClock:
    """Monotonic wall-clock with the SimulatedClock surface.

    Lets :class:`~repro.resilience.deadline.Deadline` and
    :class:`~repro.resilience.retry.RetryPolicy` run unmodified against a
    wire target: ``advance`` really sleeps (backoff), ``now`` really
    reads time (deadline bookkeeping).
    """

    __slots__ = ()

    def now(self) -> float:
        return time.monotonic()

    def advance(self, seconds: float) -> float:
        if seconds > 0:
            time.sleep(seconds)
        return self.now()


class WireConnection:
    """One TCP connection to a :class:`~repro.net.server.ReproServer`."""

    #: Tells the Connection facade the session is remote (see module doc).
    remote_session = True

    def __init__(
        self,
        host: str,
        port: int,
        database: Optional[str] = None,
        principal: str = "dbo",
        timeout: Optional[float] = None,
        fetch_rows: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.database = database
        self.principal = principal
        self.timeout = timeout
        self.fetch_rows = fetch_rows
        self.clock = _WallClock()
        self.closed = False
        #: Mirrored from the last RESULT header: is the server-side
        #: session inside an explicit transaction?
        self.in_transaction = False
        self.server_name: Optional[str] = None
        self.server_batch_rows = 0
        self._sock: Optional[socket.socket] = None
        metrics = global_registry()
        self._m_roundtrips = metrics.counter("net.client.roundtrips")
        self._m_bytes_out = metrics.counter("net.client.bytes_out")
        self._m_bytes_in = metrics.counter("net.client.bytes_in")
        self._m_redials = metrics.counter("net.client.redials")
        self._m_seconds = metrics.histogram("net.client.roundtrip_seconds")
        self._dial()

    @property
    def name(self) -> str:
        return self.server_name or f"tcp://{self.host}:{self.port}"

    # -- transport ---------------------------------------------------------

    def _dial(self) -> None:
        """Connect and handshake; transient errors on refusal/timeouts."""
        try:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot reach tcp://{self.host}:{self.port}: {exc}"
            ) from exc
        sock.settimeout(self.timeout)
        self._sock = sock
        self.in_transaction = False
        hello = {
            "protocol": protocol.PROTOCOL_VERSION,
            "database": self.database,
            "principal": self.principal,
            "fetch_rows": self.fetch_rows,
        }
        try:
            welcome = self._roundtrip(protocol.OP_HELLO, hello, protocol.OP_WELCOME)
        except Exception:
            # HandshakeError (version/database rejection) or OverloadError
            # (accept-time shedding) — either way the server said no.
            self._drop()
            raise
        self.server_name = welcome.get("server")
        self.server_batch_rows = int(welcome.get("batch_rows") or 0)

    def _ensure_connected(self) -> None:
        if self.closed:
            raise ClientError("wire connection is closed")
        if self._sock is None:
            self._m_redials.inc()
            self._dial()

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        self.in_transaction = False
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _send_frame(self, opcode: int, payload: Optional[Dict[str, Any]]) -> None:
        frame = protocol.encode_frame(opcode, payload)
        assert self._sock is not None
        try:
            self._sock.sendall(frame)
        except OSError as exc:
            self._drop()
            raise ConnectionLostError(f"send to {self.name} failed: {exc}") from exc
        self._m_bytes_out.inc(len(frame))

    def _recv_frame(self):
        """One frame through the shared reader. Whatever goes wrong, the
        socket is dropped (the next call re-dials): transport trouble —
        EOF, possibly mid-frame; a timeout; a reset — surfaces as a
        transient :class:`ConnectionLostError`, a malformed reply as
        the :class:`~repro.errors.ProtocolError` it is."""
        assert self._sock is not None
        try:
            opcode, payload, size = protocol.read_frame(self._sock)
        except protocol.ProtocolError:
            self._drop()
            raise
        except (EOFError, OSError) as exc:  # socket.timeout is an OSError
            self._drop()
            raise ConnectionLostError(f"connection to {self.name} lost: {exc}") from exc
        self._m_bytes_in.inc(size)
        return opcode, payload

    def _expected(self, expect: int) -> Dict[str, Any]:
        """The payload of the next frame, which must be ``expect`` or ERROR."""
        opcode, payload = self._recv_frame()
        if opcode == protocol.OP_ERROR:
            try:
                protocol.raise_error(payload or {})
            except TransactionLostError:
                self.in_transaction = False  # an ERROR frame carries no mirror
                raise
        if opcode != expect:
            self._drop()
            raise protocol.ProtocolError(
                f"expected {protocol.OP_NAMES[expect]}, "
                f"got {protocol.OP_NAMES.get(opcode, opcode)}"
            )
        return payload or {}

    def _roundtrip(self, opcode: int, payload: Optional[Dict[str, Any]], expect: int):
        """Send one request and read its whole reply: the one request
        path, so every completed round trip is counted and timed alike.

        Returns the ``expect`` frame's payload; for ``RESULT``, the
        :class:`Result` reassembled from the header and its ROWS stream.
        """
        started = time.perf_counter()
        self._send_frame(opcode, payload)
        reply: Any = self._expected(expect)
        if expect == protocol.OP_RESULT:
            rows: list = []
            last = False
            while not last:
                chunk = self._expected(protocol.OP_ROWS)
                rows.extend(chunk.get("rows") or [])
                last = bool(chunk.get("last"))
            self.in_transaction = bool(reply.get("in_transaction"))
            reply = protocol.build_result(reply, rows)
        self._m_roundtrips.inc()
        self._m_seconds.observe(time.perf_counter() - started)
        return reply

    # -- request headers ---------------------------------------------------

    def _request(self, extra: Dict[str, Any]) -> Dict[str, Any]:
        """Common request header: deadline budget + trace context."""
        payload = dict(extra)
        budget = remaining_budget()
        if budget is not None:
            payload["budget"] = budget
        span = active_span()
        if span is not None:
            payload["trace"] = [span.trace_id, span.span_id]
        if self.fetch_rows:
            payload["fetch_rows"] = self.fetch_rows
        return payload

    # -- execution target surface -----------------------------------------

    def execute(
        self, sql: str, params: Optional[Dict[str, Any]] = None, session: Any = None
    ) -> Result:
        """Execute a batch on the remote session (the facade's chokepoint);
        ``session`` is ignored — the real one lives server-side."""
        self._ensure_connected()
        return self._roundtrip(
            protocol.OP_EXECUTE,
            self._request({"sql": sql, "params": params}),
            protocol.OP_RESULT,
        )

    # -- health / lifecycle ------------------------------------------------

    def healthy(self) -> bool:
        """PING round-trip; any failure marks the socket for re-dial."""
        if self.closed:
            return False
        try:
            self._ensure_connected()
            self._roundtrip(protocol.OP_PING, None, protocol.OP_PONG)
        except Exception:  # noqa: BLE001 — a health probe never raises
            self._drop()
            return False
        return True

    def close(self) -> None:
        """Idempotent close: best-effort BYE, then drop the socket."""
        if self.closed:
            return
        self.closed = True
        if self._sock is not None:
            try:
                self._sock.sendall(protocol.encode_frame(protocol.OP_BYE))
            except OSError:
                pass
        self._drop()

    def __enter__(self) -> "WireConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("open" if self._sock else "idle")
        return f"<WireConnection {self.name} db={self.database} {state}>"
