"""The network front end: a blocking socket server over an engine target.

:class:`ReproServer` puts a real TCP listener in front of any execution
target — an engine :class:`~repro.engine.server.Server` or a
:class:`~repro.mtcache.cache_server.CacheServer` facade — speaking the
frame protocol of :mod:`repro.net.protocol`. One daemon thread accepts;
each accepted connection gets one daemon handler thread. The calling
thread gets a plain blocking ``start()``/``stop()`` object (or
``serve_forever()`` for the CLI), like the rest of the — entirely
synchronous — codebase.

Design points:

* **One way in.** Every request reaches the target as
  ``target.execute(sql, params, session)``, so a cache facade's
  forwarding, fallbacks and degraded reads apply to each request a
  client sends. The engine server behind the target is consulted only
  for its clock, metrics and catalog of databases.
* **One handler thread per connection.** The handler reads a frame,
  runs the target call inline, writes the whole reply with one
  ``sendall``, and cleans up in its own ``finally`` — before the socket
  closes, so a client that sees EOF finds the latch already free. (An
  explicit transaction's latch hold belongs to the connection's session,
  not to this thread: nothing here depends on thread identity.)
* **Sessions live server-side.** The HELLO handshake creates the
  :class:`~repro.engine.session.Session`; variables and transaction
  state persist across that connection's statements exactly as they
  would in-process. The RESULT header echoes ``in_transaction`` so the
  client facade can mirror commit/rollback semantics.
* **Deadlines re-anchor.** A request's ``budget`` (remaining seconds) is
  turned into a fresh :class:`~repro.resilience.deadline.Deadline` on
  the engine's clock inside the handler thread, so PR 9 deadline scopes
  survive the hop without shared clocks.
* **Overload sheds at accept.** Connections beyond ``max_connections``
  get one ERROR frame carrying :class:`~repro.errors.OverloadError`
  (transient — the client may retry as load drains) and are closed,
  bounding the backlog instead of queueing unboundedly.
* **Faults are injectable on real frames.** A nullable ``injector``
  fires at ``net:<name>:request`` (before dispatch) and
  ``net:<name>:result`` (after execution, before the reply); a
  :class:`~repro.errors.LinkUnavailableError` from either site drops the
  transport abruptly — the wire-level analogue of a mid-frame network
  partition, surfacing client-side as a transient
  :class:`~repro.errors.ConnectionLostError`.
* **Malformed frames end their connection only.** A bad length prefix or
  an undecodable body is answered with one ERROR frame carrying
  :class:`~repro.errors.ProtocolError`; the stream is out of step after
  it, so that connection closes while the listener keeps serving. A
  well-framed request with an opcode the server does not serve (the
  prepared-statement opcodes of protocol version 1 among them) is
  answered ProtocolError too, and the connection carries on.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional

from repro.common.locks import mutex
from repro.engine.results import Result
from repro.engine.session import Session
from repro.errors import (
    CatalogError,
    HandshakeError,
    LinkUnavailableError,
    OverloadError,
    ProtocolError,
)
from repro.net import protocol
from repro.obs.tracing import propagated_trace
from repro.resilience.deadline import Deadline, deadline_scope


class _AbruptClose(Exception):
    """Internal signal: drop the transport without a reply (fault drop)."""


def _shutdown(sock: socket.socket) -> None:
    """Wake whichever thread blocks on ``sock``; it closes the socket itself."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already disconnected or closed


class _WireSession:
    """Server-side state of one accepted connection."""

    __slots__ = ("sock", "session", "fetch_rows")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.session: Optional[Session] = None
        self.fetch_rows: Optional[int] = None


class ReproServer:
    """A TCP front end serving the wire protocol over an execution target."""

    def __init__(
        self,
        target: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 64,
        injector: Any = None,
    ):
        self.target = target
        #: The engine server behind the target (clock, metrics, databases).
        self.engine = getattr(target, "server", None) or target
        self.host = host
        self.port = port  # rebound to the real port once listening
        self.max_connections = max_connections
        self.injector = injector
        self.name = getattr(target, "name", None) or type(target).__name__
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None  # the accept thread
        #: Live client socket -> its handler thread; guarded by ``_lock``.
        self._live: Dict[socket.socket, threading.Thread] = {}
        self._lock = mutex()
        metrics = self.engine.metrics
        self._m_accepted = metrics.counter("net.server.connections_accepted")
        self._m_shed = metrics.counter("net.server.connections_shed")
        self._m_active = metrics.gauge("net.server.connections_active")
        self._m_requests = metrics.counter("net.server.requests")
        self._m_errors = metrics.counter("net.server.request_errors")
        self._m_bytes_in = metrics.counter("net.server.bytes_in")
        self._m_bytes_out = metrics.counter("net.server.bytes_out")
        self._m_seconds = metrics.histogram("net.server.request_seconds")

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def serve(
        cls,
        target: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        **options: Any,
    ) -> "ReproServer":
        """Construct and start a server; returns once it is listening.

        ``port=0`` binds an ephemeral port; read ``server.port`` for the
        real one (the pattern every test and the CI job use).
        """
        server = cls(target, host=host, port=port, **options)
        server.start()
        return server

    @property
    def dsn(self) -> str:
        """The tcp DSN clients dial to reach this server's default database."""
        database = self.engine.default_database or ""
        return f"tcp://{self.host}:{self.port}/{database}"

    def start(self) -> None:
        """Bind the listener (a bind error raises here) and start accepting."""
        if self._thread is not None:
            raise ProtocolError("server already started")
        self._listener = socket.create_server((self.host, self.port))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(
            target=self._accept_loop,
            args=(self._listener,),
            name=f"repro-net-server-{self.name}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop listening, disconnect every client, wait for the threads.

        Client sockets are shut down, not closed: each handler falls out
        of ``recv`` and runs its own cleanup (rollback, handle close) on
        its own thread. An engine call in flight is not cancelled.
        """
        thread, listener = self._thread, self._listener
        if thread is None or listener is None:
            return
        deadline = time.monotonic() + 10
        self._listener = None  # tells the accept thread its next error is this
        # shutdown, then close: close alone does not wake a blocked accept.
        _shutdown(listener)
        listener.close()
        thread.join(timeout=10)
        with self._lock:  # the accept thread is gone: nothing new appears
            live = dict(self._live)
        for sock in live:
            _shutdown(sock)
        for handler in live.values():
            handler.join(timeout=max(0.0, deadline - time.monotonic()))
        self._thread = None

    def serve_forever(self) -> None:
        """Blocking serve (the ``python -m repro serve`` entry point)."""
        if self._thread is None:
            self.start()
        thread = self._thread
        assert thread is not None
        try:
            thread.join()
        except KeyboardInterrupt:
            self.stop()

    def __enter__(self) -> "ReproServer":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- connection handling ----------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, address = listener.accept()
            except OSError:
                if self._listener is None:
                    return  # stop() shut the listener down
                continue  # that one connection failed; keep listening
            peer = f"{address[0]}:{address[1]}"
            with self._lock:
                admitted = len(self._live) < self.max_connections
                if admitted:
                    handler = threading.Thread(
                        target=self._handle_connection,
                        args=(_WireSession(sock),),
                        name=f"repro-net-{peer}",
                        daemon=True,
                    )
                    self._live[sock] = handler
                    # Counted before it can be served: a client that got
                    # its WELCOME finds itself in the count.
                    self._m_accepted.inc()
                    self._m_active.set(len(self._live))
                    handler.start()  # under the lock: stop() only joins started threads
            if admitted:
                continue
            # Shed at accept: one ERROR frame, then close. The client's
            # pending HELLO gets OverloadError instead of WELCOME.
            self._m_shed.inc()
            overload = OverloadError(
                f"server {self.name!r} at connection limit "
                f"({self.max_connections}); shedding {peer}"
            )
            try:
                self._send(sock, [self._error_frame(overload)])
            except OSError:
                pass  # the client gave up first
            sock.close()

    def _handle_connection(self, wire: _WireSession) -> None:
        try:
            # Replies are whole messages; never wait to coalesce them.
            wire.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._serve_session(wire)
        except (_AbruptClose, EOFError, OSError):
            pass  # injected drop (the client sees EOF for a reply), or it went away
        finally:
            try:
                self._cleanup(wire)
            finally:
                wire.sock.close()
                with self._lock:
                    del self._live[wire.sock]
                    self._m_active.set(len(self._live))

    def _cleanup(self, wire: _WireSession) -> None:
        """Disconnect hygiene, on the thread that ran the connection.

        An abandoned explicit transaction holds the database latch
        exclusively — rolling it back here is what keeps a dropped client
        from wedging every other session (when the server crashed
        meanwhile it ended the transaction itself, and the ``ROLLBACK``
        is answered as a no-op).
        """
        session = wire.session
        if session is not None and session.in_transaction:
            self.target.execute("ROLLBACK", session=session)

    def _serve_session(self, wire: _WireSession) -> None:
        while True:
            try:
                opcode, payload, size = protocol.read_frame(wire.sock)
            except ProtocolError as exc:
                # The stream is out of step: answer once, then close.
                self._m_errors.inc()
                self._send(wire.sock, [self._error_frame(exc)])
                return
            self._m_bytes_in.inc(size)
            if opcode == protocol.OP_BYE:
                return
            started = time.perf_counter()
            self._m_requests.inc()
            try:
                self._send(wire.sock, self._reply(wire, opcode, payload or {}))
            finally:
                self._m_seconds.observe(time.perf_counter() - started)

    def _reply(self, wire: _WireSession, opcode: int, payload: Dict[str, Any]) -> List[bytes]:
        """The reply frames for one request; any error but an injected
        drop is itself a reply — one ERROR frame."""
        try:
            self._on_fault("request", opcode)
            if opcode == protocol.OP_HELLO:
                return [protocol.encode_frame(*self._do_hello(wire, payload))]
            if opcode == protocol.OP_PING:
                return [protocol.encode_frame(protocol.OP_PONG, {"server": self.name})]
            if opcode != protocol.OP_EXECUTE:
                raise ProtocolError(f"unexpected opcode 0x{opcode:02x} from client")
            if wire.session is None:
                raise ProtocolError("EXECUTE before HELLO")
            result = self._do_execute(wire, payload)
            self._on_fault("result", opcode)
            return self._result_frames(wire, payload, result)
        except _AbruptClose:
            raise
        except Exception as exc:  # noqa: BLE001 — every error becomes a frame
            self._m_errors.inc()
            return [self._error_frame(exc)]

    def _on_fault(self, point: str, opcode: int) -> None:
        """Injector hook; LinkUnavailableError means: drop the transport."""
        if self.injector is None:
            return
        try:
            self.injector.on_call(
                f"net:{self.name}:{point}",
                opcode=protocol.OP_NAMES.get(opcode, str(opcode)),
            )
        except LinkUnavailableError as exc:
            raise _AbruptClose(str(exc)) from exc

    # -- request handlers (on the connection's handler thread) -------------

    def _do_hello(self, wire: _WireSession, payload: Dict[str, Any]):
        if wire.session is not None:
            # Replacing the session would orphan its open transaction —
            # and the database latch that transaction holds.
            raise ProtocolError("HELLO on a connection that already has a session")
        version = payload.get("protocol")
        if version != protocol.PROTOCOL_VERSION:
            raise HandshakeError(
                f"protocol version mismatch: client speaks {version!r}, "
                f"server {self.name!r} speaks {protocol.PROTOCOL_VERSION}"
            )
        database = payload.get("database") or None
        if database is not None:
            # Validate at handshake so a typo fails the connect, not the
            # first statement. CacheServer targets pin their own shadow
            # database; for them the client's choice must match the
            # engine's catalog all the same.
            try:
                self.engine.database(database)
            except CatalogError as exc:
                raise HandshakeError(
                    f"server {self.name!r} does not serve database "
                    f"{database!r}: {exc}"
                ) from exc
        principal = str(payload.get("principal") or "dbo")
        wire.session = Session(principal=principal, database=database)
        requested = payload.get("fetch_rows")
        wire.fetch_rows = int(requested) if requested else None
        return protocol.OP_WELCOME, {
            "protocol": protocol.PROTOCOL_VERSION,
            "server": self.name,
            "database": database or self.engine.default_database,
            "batch_rows": int(getattr(self.engine, "batch_rows", 0) or 0),
        }

    def _do_execute(self, wire: _WireSession, payload: Dict[str, Any]) -> Result:
        """One request through the target, under its propagated deadline
        and trace.

        Runs on the connection's handler thread. The budget re-anchors on
        the engine clock; the trace context parents this request's spans
        under the client's active span.
        """
        sql = str(payload.get("sql") or "")
        params = payload.get("params") or None
        budget = payload.get("budget")
        trace = payload.get("trace")
        deadline = (
            Deadline.after(self.engine.clock, float(budget)) if budget is not None else None
        )

        def run():
            with deadline_scope(deadline):
                return self.target.execute(sql, params=params, session=wire.session)

        if trace:
            with propagated_trace(int(trace[0]), int(trace[1]), service=self.name):
                return run()
        return run()

    # -- replies -----------------------------------------------------------

    @staticmethod
    def _error_frame(exc: BaseException) -> bytes:
        return protocol.encode_frame(protocol.OP_ERROR, protocol.error_payload(exc))

    def _send(self, sock: socket.socket, frames: List[bytes]) -> None:
        """Write one whole reply — all of its frames — with one ``sendall``."""
        data = b"".join(frames)
        sock.sendall(data)
        self._m_bytes_out.inc(len(data))

    def _result_frames(
        self, wire: _WireSession, payload: Dict[str, Any], result: Result
    ) -> List[bytes]:
        """RESULT header, then the rows in batches (fetch-in-batches).

        The batch size is the request's ``fetch_rows`` override, else the
        connection default from HELLO, else the engine's execution
        chunk size — the wire hop streams rows at the same
        granularity :class:`~repro.exec.operators.BatchCursor` produced
        them.
        """
        session = wire.session
        in_transaction = bool(session is not None and session.in_transaction)
        frames = [
            protocol.encode_frame(
                protocol.OP_RESULT, protocol.result_header(result, in_transaction)
            )
        ]
        requested = payload.get("fetch_rows")
        batch = int(requested) if requested else wire.fetch_rows
        if not batch:
            batch = int(getattr(self.engine, "batch_rows", 0) or 0) or len(result.rows) or 1
        rows = result.rows
        for start in range(0, max(len(rows), 1), batch):  # no rows: one empty, last batch
            frames.append(
                protocol.encode_frame(
                    protocol.OP_ROWS,
                    {
                        "rows": list(rows[start : start + batch]),
                        "last": start + batch >= len(rows),
                    },
                )
            )
        return frames

    def __repr__(self) -> str:
        state = "listening" if self._thread is not None else "stopped"
        return f"<ReproServer {self.name} {self.host}:{self.port} {state}>"
