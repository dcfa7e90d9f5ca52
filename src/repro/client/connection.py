"""Connection and Cursor: the DBAPI-2.0-flavoured facade.

A :class:`Connection` wraps any execution target — an engine
:class:`~repro.engine.server.Server`, a
:class:`~repro.mtcache.cache_server.CacheServer` facade, a
:class:`~repro.resilience.failover.FailoverRouter`, a
:class:`~repro.client.shard_router.ShardRouter` or a
:class:`~repro.net.wire.WireConnection` — and owns the
:class:`~repro.engine.session.Session` that carries principal, database,
variables and transaction state across statements.

The execution-target protocol is one method,
``execute(sql, params=None, session=None) -> Result``, and the session a
connection passes is *the* session at every in-process hop: routers
forward it, the engine server that runs ``BEGIN`` makes it the owner of
the transaction and of the database latch, and a session in a
transaction is sent to that home and nowhere else — by
:func:`execute_home`, the one function every router and ODBC source
calls for it. Only the wire client's session really lives elsewhere
(server-side): it ignores ``session``, declares ``remote_session = True``
and mirrors the transaction state in an ``in_transaction`` attribute.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine.results import Result
from repro.engine.session import Session
from repro.errors import ClientError


def connect(
    target: Any,
    database: Optional[str] = None,
    principal: str = "dbo",
    timeout: Optional[float] = None,
) -> "Connection":
    """Open a connection (DBAPI ``connect``), by DSN or by object.

    The one URL-shaped entrypoint of the client API. ``target`` is either:

    * a **DSN string** — ``tcp://host:port/database`` dials a
      :class:`~repro.net.wire.WireConnection` to a running
      :class:`~repro.net.server.ReproServer`;
      ``inproc://name[/subname]`` resolves a target registered with
      :func:`repro.net.register_inproc` and calls it in-process. Either
      way the same :class:`Connection`/:class:`Cursor` facade comes back,
      so pools, failover routers and load drivers cannot tell the
      transports apart.
    * a **plain execution target object** (Server, CacheServer,
      FailoverRouter, ...) — the pre-DSN calling convention, kept for
      back-compat and for composing targets that have no name.

    ``timeout`` (seconds) applies to tcp DSNs: the dial timeout and the
    per-operation socket timeout (a DSN ``?timeout=`` takes precedence).
    Passing ``database=`` alongside a DSN that already carries a
    ``/database`` path raises :class:`~repro.errors.ClientError`.
    """
    if isinstance(target, str):
        return _connect_dsn(target, database=database, principal=principal, timeout=timeout)
    return Connection(target, database=database, principal=principal)


def _connect_dsn(
    dsn_text: str,
    database: Optional[str],
    principal: str,
    timeout: Optional[float],
) -> "Connection":
    from repro.net import WireConnection, parse_dsn, resolve_inproc

    dsn = parse_dsn(dsn_text)
    if dsn.database is not None and database is not None:
        raise ClientError(
            f"database={database!r} conflicts with the DSN {dsn_text!r}, which "
            f"already carries /{dsn.database}; drop the argument"
        )
    principal = dsn.principal or principal
    if dsn.scheme == "inproc":
        target, default_database = resolve_inproc(dsn.inproc_key)
        return Connection(target, database=database or default_database, principal=principal)
    wire = WireConnection(
        dsn.host,
        dsn.port,
        database=dsn.database or database,
        principal=principal,
        timeout=dsn.timeout if dsn.timeout is not None else timeout,
        fetch_rows=dsn.fetch_rows,
    )
    return Connection(wire, principal=principal, owns_target=True)


def execute_on(target: Any, database: Optional[str], sql: str, params, session) -> Result:
    """One statement of ``session`` on ``target`` — how a router forwards.
    ``database`` names the one to use on a target that serves several (an
    engine server, which would otherwise read the session's)."""
    if database is None:
        return target.execute(sql, params=params, session=session)
    return target.execute(sql, params=params, session=session, database=database)


def execute_home(sql: str, params, session) -> Result:
    """One statement of a session inside a transaction: it runs at the
    transaction's home — on the engine server whose database latch the
    session holds, not on a facade or router in front of it — and nowhere
    else, whatever a router would pick for a statement outside one, and
    wherever an ODBC source points by now. If that server crashed, it
    answers :class:`~repro.errors.TransactionLostError`."""
    home = session.home
    return execute_on(home.owner_server, home.name, sql, params, session)


def engine_of(target: Any) -> Any:
    """The engine server behind a target: a CacheServer's ``.server`` is
    the engine server, a router's ``.server`` unwraps the same way."""
    inner = getattr(target, "server", None)
    return inner if inner is not None else target


class Connection:
    """One client connection: a session plus an execution target."""

    def __init__(
        self,
        target: Any,
        database: Optional[str] = None,
        principal: str = "dbo",
        owns_target: bool = False,
    ):
        self.target = target
        self.database = database
        self.session = Session(principal=principal, database=database)
        self.closed = False
        #: True only for targets this connection created itself (a DSN
        #: dial): close() tears those down. Shared targets — a Server
        #: object, an inproc registration, a WireConnection handed in
        #: directly — are never closed from here, so one checkout's
        #: ``close()`` can never kill a sibling's live socket.
        self._owns_target = owns_target

    # -- target plumbing ---------------------------------------------------

    @property
    def server(self) -> Any:
        """The engine server behind the target (metrics, clock, tracer)."""
        return engine_of(self.target)

    def _raw_execute(self, sql: str, params: Optional[Dict[str, Any]]) -> Result:
        if self.closed:
            raise ClientError("connection is closed")
        return self.target.execute(sql, params=params, session=self.session)

    def _timed_execute(
        self, sql: str, params: Optional[Dict[str, Any]], timeout: Optional[float]
    ) -> Result:
        """``_raw_execute``, under an end-to-end deadline of ``timeout``
        virtual seconds on the target server's clock when one is set.

        The deadline rides a context variable down every tier below this
        call — shard routers, failover routers, cache servers, linked
        servers — each of which checks the remaining budget before
        spending a hop and raises
        :class:`~repro.errors.DeadlineExceededError` once it is gone.
        """
        clock = getattr(self.server, "clock", None) if timeout is not None else None
        if clock is None:  # no timeout asked for, or no clock to measure one against
            return self._raw_execute(sql, params)
        from repro.resilience.deadline import Deadline, deadline_scope

        with deadline_scope(Deadline.after(clock, timeout)):
            return self._raw_execute(sql, params)

    # -- DBAPI surface -----------------------------------------------------

    def cursor(self) -> "Cursor":
        if self.closed:
            raise ClientError("connection is closed")
        return Cursor(self)

    def begin(self) -> None:
        """Start an explicit transaction (``BEGIN TRANSACTION``)."""
        self._raw_execute("BEGIN TRANSACTION", None)

    def in_transaction(self) -> bool:
        """Is this connection inside an explicit transaction?

        The session knows; the wire client (``remote_session``) keeps
        the transacting session server-side and mirrors its state in
        ``in_transaction``.
        """
        if getattr(self.target, "remote_session", False):
            return bool(self.target.in_transaction)
        return self.session.in_transaction

    def commit(self) -> None:
        """Commit the session's transaction; no-op outside one (DBAPI
        autocommit-compatible behavior for this engine)."""
        if self.in_transaction():
            self._raw_execute("COMMIT", None)

    def rollback(self) -> None:
        """Roll back the session's transaction; no-op outside one."""
        if self.in_transaction():
            self._raw_execute("ROLLBACK", None)

    def close(self) -> None:
        """Close the connection, rolling back any open transaction.

        Rolling back matters beyond tidiness: the session of an explicit
        transaction holds the database latch exclusively, so an abandoned
        connection must release it or every other session blocks forever
        (a transaction its server's crash already ended rolls back as a
        clean no-op). A target
        this connection dialed itself (a ``tcp://`` DSN) is torn down
        too; shared targets are left alone (see ``_owns_target``).
        """
        if self.closed:
            return
        try:
            try:
                self.rollback()
            finally:
                if self._owns_target:
                    target_close = getattr(self.target, "close", None)
                    if target_close is not None:
                        target_close()
        finally:
            self.closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- health ------------------------------------------------------------

    def healthy(self) -> bool:
        """Probe the target (pool checkout health check).

        Uses the target's own ``healthy()`` when it has one (Server,
        CacheServer); otherwise falls back to the unwrapped server's
        ``available`` flag; a router with neither is assumed healthy —
        it reroutes internally.
        """
        probe = getattr(self.target, "healthy", None)
        if probe is not None:
            return bool(probe())
        return bool(getattr(self.server, "available", True))

    def __repr__(self) -> str:
        target = getattr(self.target, "name", None) or type(self.target).__name__
        state = "closed" if self.closed else "open"
        return f"<Connection {target} db={self.database} {state}>"


class Cursor:
    """A DBAPI-style cursor over one connection.

    ``description`` follows the DBAPI 7-tuple shape
    ``(name, type_code, display_size, internal_size, precision, scale,
    null_ok)`` with the engine's SQL type as the type code. ``rowcount``
    is the affected-row count for DML and the fetched-row count for
    queries, -1 before any execute.
    """

    arraysize = 1

    def __init__(self, connection: Connection):
        self.connection = connection
        self.closed = False
        self._result: Optional[Result] = None
        self._position = 0

    # -- execute -----------------------------------------------------------

    def execute(
        self,
        sql: str,
        params: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> "Cursor":
        """Execute a statement batch.

        ``timeout`` (virtual seconds) installs an end-to-end
        :class:`~repro.resilience.deadline.Deadline` for the statement:
        every tier below — routers, caches, linked servers — checks the
        remaining budget before each hop and fails fast with
        :class:`~repro.errors.DeadlineExceededError` once it is spent,
        and retry backoff never sleeps past it.
        """
        if self.closed:
            raise ClientError("cursor is closed")
        self._result = self.connection._timed_execute(sql, params, timeout)
        self._position = 0
        return self

    def executemany(self, sql: str, param_seq) -> "Cursor":
        for params in param_seq:
            self.execute(sql, params)
        return self

    # -- results -----------------------------------------------------------

    @property
    def result(self) -> Result:
        """The last statement's raw :class:`Result` (engine extension)."""
        if self._result is None:
            raise ClientError("no statement has been executed on this cursor")
        return self._result

    @property
    def rowcount(self) -> int:
        if self._result is None:
            return -1
        return self._result.rowcount

    @property
    def description(self) -> Optional[List[Tuple]]:
        if self._result is None or self._result.schema is None:
            return None
        return [
            (column.name, column.sql_type, None, None, None, None, None)
            for column in self._result.schema
        ]

    def fetchone(self) -> Optional[Tuple]:
        rows = self.result.rows
        if self._position >= len(rows):
            return None
        row = rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple]:
        count = size if size is not None else self.arraysize
        rows = self.result.rows[self._position : self._position + count]
        self._position += len(rows)
        return rows

    def fetchall(self) -> List[Tuple]:
        rows = self.result.rows[self._position :]
        self._position = len(self.result.rows)
        return rows

    def mappings(self) -> List[Dict[str, Any]]:
        """Remaining rows as dicts keyed by column name."""
        names = [entry[0] for entry in (self.description or [])]
        return [dict(zip(names, row)) for row in self.fetchall()]

    def __iter__(self) -> Iterator[Tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.closed = True
        self._result = None

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<Cursor {state} rowcount={self.rowcount}>"
