"""The network front end: an asyncio socket server over an engine target.

:class:`ReproServer` puts a real TCP listener in front of any execution
target — an engine :class:`~repro.engine.server.Server` or a
:class:`~repro.mtcache.cache_server.CacheServer` facade — speaking the
frame protocol of :mod:`repro.net.protocol`. The asyncio event loop runs
on a dedicated background thread; the calling thread gets a plain
blocking ``start()``/``stop()`` object (or ``serve_forever()`` for the
CLI), so the rest of the — entirely synchronous — codebase never sees a
coroutine.

Design points:

* **One worker thread per connection.** The engine's transaction control
  keys latch ownership to the OS thread that ran BEGIN (coarse 2PL, see
  ``Server._begin_transaction``), so all statements of one wire
  connection — and its disconnect-cleanup rollback — must run on one
  thread. Each connection owns a single-thread executor; the event loop
  thread itself never touches the engine.
* **Sessions live server-side.** The HELLO handshake creates the
  :class:`~repro.engine.session.Session`; variables and transaction
  state persist across that connection's statements exactly as they
  would in-process. The RESULT header echoes ``in_transaction`` so the
  client facade can mirror commit/rollback semantics.
* **Deadlines re-anchor.** A request's ``budget`` (remaining seconds) is
  turned into a fresh :class:`~repro.resilience.deadline.Deadline` on
  the engine's clock inside the worker thread, so PR 9 deadline scopes
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
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.engine.results import Result
from repro.engine.session import Session
from repro.errors import (
    HandshakeError,
    LinkUnavailableError,
    OverloadError,
    ProtocolError,
)
from repro.net import protocol
from repro.obs.tracing import propagated_trace


class _AbruptClose(Exception):
    """Internal signal: drop the transport without a reply (fault drop)."""


class _WireSession:
    """Server-side state of one accepted connection."""

    __slots__ = ("session", "executor", "handles", "fetch_rows", "peer")

    def __init__(self, peer: str):
        self.session: Optional[Session] = None
        # One thread for this connection's whole life: latch ownership is
        # per-thread, so BEGIN and the statements under it must share one.
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-net-{peer}"
        )
        #: handle id -> statement text, for disconnect cleanup.
        self.handles: Dict[int, str] = {}
        self.fetch_rows: Optional[int] = None
        self.peer = peer


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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._connections = 0
        self._handler_tasks: set = set()
        self._writers: set = set()
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
        """Start the listener on its background event-loop thread."""
        if self._thread is not None:
            raise ProtocolError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name=f"repro-net-server-{self.name}", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join()
            self._thread = None
            self._startup_error = None
            raise error

    def stop(self) -> None:
        """Stop the listener and wait for the loop thread to exit."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(self._signal_stop)
        thread.join(timeout=10)
        self._thread = None
        self._loop = None

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

    def _signal_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _run_loop(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            listener = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            return
        self.port = listener.sockets[0].getsockname()[1]
        self._started.set()
        async with listener:
            await self._stop_event.wait()
        # Graceful drain: close every client transport so its handler
        # falls out of readexactly on its own (no task cancellation — a
        # cancelled handler could skip its rollback cleanup), then wait.
        for writer in list(self._writers):
            writer.close()
        if self._handler_tasks:
            await asyncio.wait(self._handler_tasks, timeout=10)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        if self._connections >= self.max_connections:
            # Shed at accept: one ERROR frame, then close. The client's
            # pending HELLO gets OverloadError instead of WELCOME.
            self._m_shed.inc()
            await self._send(
                writer,
                protocol.OP_ERROR,
                protocol.error_payload(
                    OverloadError(
                        f"server {self.name!r} at connection limit "
                        f"({self.max_connections}); shedding {peer}"
                    )
                ),
            )
            writer.close()
            return
        self._connections += 1
        self._m_accepted.inc()
        self._m_active.set(self._connections)
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        self._writers.add(writer)
        wire = _WireSession(peer)
        try:
            await self._serve_session(wire, reader, writer)
        except (_AbruptClose, ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections -= 1
            self._m_active.set(self._connections)
            self._writers.discard(writer)
            writer.close()
            await self._cleanup(wire)
            if task is not None:
                self._handler_tasks.discard(task)

    async def _cleanup(self, wire: _WireSession) -> None:
        """Disconnect hygiene, on the connection's own worker thread.

        An abandoned explicit transaction holds the database latch
        exclusively — rolling it back here is what keeps a dropped client
        from wedging every other session. Prepared handles the client
        created are dropped the way a closed in-process link would drop
        them.
        """
        def finish() -> None:
            session = wire.session
            if session is not None and session.in_transaction:
                self._execute_target("ROLLBACK", None, session)
            for handle_id in wire.handles:
                self.engine.close_prepared(handle_id)

        # submit (not run_in_executor) so the rollback runs to completion
        # on the worker thread even if this coroutine is cancelled while
        # awaiting it — a leaked exclusive latch wedges every session.
        future = wire.executor.submit(finish)
        try:
            await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            future.result(timeout=10)
            raise
        finally:
            wire.executor.shutdown(wait=False)

    async def _serve_session(
        self, wire: _WireSession, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                prefix = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away
            length = protocol.check_frame_length(int.from_bytes(prefix, "big"))
            body = await reader.readexactly(length)
            self._m_bytes_in.inc(4 + length)
            opcode, payload = protocol.decode_body(body)
            if opcode == protocol.OP_BYE:
                return
            started = loop.time()
            self._m_requests.inc()
            try:
                self._on_fault("request", opcode)
                if opcode == protocol.OP_HELLO:
                    await self._send(writer, *self._do_hello(wire, payload or {}))
                elif opcode == protocol.OP_PING:
                    await self._send(writer, protocol.OP_PONG, {"server": self.name})
                elif wire.session is None:
                    raise ProtocolError(
                        f"{protocol.OP_NAMES.get(opcode, opcode)} before HELLO"
                    )
                elif opcode == protocol.OP_EXECUTE:
                    result = await loop.run_in_executor(
                        wire.executor, self._do_execute, wire, payload or {}
                    )
                    self._on_fault("result", opcode)
                    await self._send_result(writer, wire, payload or {}, result)
                elif opcode == protocol.OP_PREPARE:
                    handle_id = await loop.run_in_executor(
                        wire.executor, self._do_prepare, wire, payload or {}
                    )
                    await self._send(writer, protocol.OP_PREPARED, {"handle": handle_id})
                elif opcode == protocol.OP_EXECUTE_PREPARED:
                    result = await loop.run_in_executor(
                        wire.executor, self._do_execute_prepared, wire, payload or {}
                    )
                    self._on_fault("result", opcode)
                    await self._send_result(writer, wire, payload or {}, result)
                elif opcode == protocol.OP_CLOSE_PREPARED:
                    handle_id = int((payload or {}).get("handle", 0))
                    wire.handles.pop(handle_id, None)
                    self.engine.close_prepared(handle_id)
                    await self._send(writer, protocol.OP_PONG, {"closed": handle_id})
                else:
                    raise ProtocolError(
                        f"unexpected opcode 0x{opcode:02x} from client"
                    )
            except _AbruptClose:
                # Injected drop: a few bytes may already be on the wire
                # (a torn frame); the client sees EOF mid-read and maps it
                # to a transient ConnectionLostError.
                writer.close()
                raise
            except Exception as exc:  # noqa: BLE001 — every error becomes a frame
                self._m_errors.inc()
                await self._send(writer, protocol.OP_ERROR, protocol.error_payload(exc))
            finally:
                self._m_seconds.observe(loop.time() - started)

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

    # -- request handlers (handshake on the loop, the rest on the worker) --

    def _do_hello(self, wire: _WireSession, payload: Dict[str, Any]):
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
            from repro.errors import CatalogError

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

    def _scoped(self, payload: Dict[str, Any], fn, *args):
        """Run ``fn`` under the request's propagated deadline and trace.

        Runs on the connection's worker thread. The budget re-anchors on
        the engine clock; the trace context parents this request's spans
        under the client's active span.
        """
        from repro.resilience.deadline import Deadline, deadline_scope

        budget = payload.get("budget")
        trace = payload.get("trace")
        deadline = (
            Deadline.after(self.engine.clock, float(budget)) if budget is not None else None
        )

        def run():
            with deadline_scope(deadline):
                return fn(*args)

        if trace:
            with propagated_trace(int(trace[0]), int(trace[1]), service=self.name):
                return run()
        return run()

    def _execute_target(
        self, sql: str, params: Optional[Dict[str, Any]], session: Session
    ) -> Result:
        return self.target.execute(sql, params=params, session=session)

    def _do_execute(self, wire: _WireSession, payload: Dict[str, Any]) -> Result:
        sql = str(payload.get("sql") or "")
        params = payload.get("params") or None
        assert wire.session is not None
        return self._scoped(payload, self._execute_target, sql, params, wire.session)

    def _do_prepare(self, wire: _WireSession, payload: Dict[str, Any]) -> int:
        sql = str(payload.get("sql") or "")
        assert wire.session is not None
        database = wire.session.database
        handle_id = self._scoped(
            payload, lambda: self.engine.prepare_sql(sql, database=database)
        )
        wire.handles[handle_id] = sql
        return handle_id

    def _do_execute_prepared(self, wire: _WireSession, payload: Dict[str, Any]) -> Result:
        handle_id = int(payload.get("handle", 0))
        params = payload.get("params") or None
        return self._scoped(
            payload, self.engine.execute_prepared, handle_id, params, wire.session
        )

    # -- replies -----------------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, opcode: int, payload) -> None:
        frame = protocol.encode_frame(opcode, payload)
        writer.write(frame)
        self._m_bytes_out.inc(len(frame))
        await writer.drain()

    async def _send_result(
        self,
        writer: asyncio.StreamWriter,
        wire: _WireSession,
        payload: Dict[str, Any],
        result: Result,
    ) -> None:
        """RESULT header, then the rows in batches (fetch-in-batches).

        The batch size is the request's ``fetch_rows`` override, else the
        connection default from HELLO, else the engine's execution
        chunk size — the wire hop streams rows at the same
        granularity :class:`~repro.exec.operators.BatchCursor` produced
        them.
        """
        session = wire.session
        in_transaction = bool(session is not None and session.in_transaction)
        await self._send(
            writer, protocol.OP_RESULT, protocol.result_header(result, in_transaction)
        )
        requested = payload.get("fetch_rows")
        batch = int(requested) if requested else wire.fetch_rows
        if not batch:
            batch = int(getattr(self.engine, "batch_rows", 0) or 0) or len(result.rows) or 1
        rows = result.rows
        if not rows:
            await self._send(writer, protocol.OP_ROWS, {"rows": [], "last": True})
            return
        for start in range(0, len(rows), batch):
            chunk = rows[start : start + batch]
            await self._send(
                writer,
                protocol.OP_ROWS,
                {"rows": list(chunk), "last": start + batch >= len(rows)},
            )

    def __repr__(self) -> str:
        state = "listening" if self._thread is not None else "stopped"
        return f"<ReproServer {self.name} {self.host}:{self.port} {state}>"
