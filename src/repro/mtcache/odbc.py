"""ODBC-source-style redirection: the transparency mechanism.

In Windows, applications connect to a *logical* ODBC source name that maps
to an actual server. Enabling MTCache for an application is a pure
configuration change: redirect the source from the backend server to the
cache server (paper §4, "Rerouting the application's ODBC sources").

A source is an execution target of its own (:class:`OdbcSource`): each
statement goes to whatever ``(server, database)`` the source maps to *at
that moment*, so a plain :class:`repro.client.Connection` over it — what
:meth:`OdbcSourceRegistry.connect` hands out — follows a redirect on its
next statement, with nothing to invalidate and nothing to re-resolve.
Applications never know which server answers them: the definition of
cache transparency.

A redirect never discards work. A session inside an explicit transaction
keeps going to the transaction's home (:func:`repro.client.connection.execute_home`)
until it commits or rolls back there; its next statement outside one
follows the new mapping. When the new server does not carry the source's
old database, the database is re-resolved from the server (its default
database) instead of silently keeping a name it cannot serve.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.client.connection import Connection, engine_of, execute_home, execute_on
from repro.errors import DistributedError


class OdbcSource:
    """One logical source name, as an execution target."""

    __slots__ = ("name", "target", "database")

    def __init__(self, name: str, target: Any, database: Optional[str]):
        self.name = name
        self.target = target
        self.database = database

    @property
    def server(self) -> Any:
        """The engine server the source points at now (metrics, clock)."""
        return engine_of(self.target)

    def execute(
        self, sql: str, params: Optional[Dict[str, Any]] = None, session: Any = None
    ) -> Any:
        if session is not None and session.in_transaction:
            return execute_home(sql, params, session)
        return execute_on(self.target, self.database, sql, params, session)

    def __repr__(self) -> str:
        return f"<OdbcSource {self.name} -> {self.target.name}/{self.database}>"


class OdbcSourceRegistry:
    """Maps logical source names to physical servers."""

    def __init__(self):
        self._sources: Dict[str, OdbcSource] = {}

    def register(self, name: str, server, database: Optional[str] = None) -> None:
        """Define a logical source (initially pointing at the backend)."""
        self._sources[name.lower()] = OdbcSource(name.lower(), server, database)

    def redirect(self, name: str, server, database: Optional[str] = None) -> None:
        """Re-point a source at a different server — no app changes needed.

        Without an explicit ``database``, the old database is kept only
        when the new server actually has it; otherwise the server's own
        default is adopted. Connections already open follow on their next
        statement.
        """
        source = self.source(name)
        if database is None:
            database = self._default_database(server, source.database)
        source.target = server
        source.database = database

    @staticmethod
    def _default_database(server, previous: Optional[str]) -> Optional[str]:
        """The database a redirected source should use on ``server``."""
        if previous is not None and previous.lower() in server.databases:
            return previous
        return server.default_database or previous

    def source(self, name: str) -> OdbcSource:
        source = self._sources.get(name.lower())
        if source is None:
            raise DistributedError(f"no ODBC source {name!r}")
        return source

    def connect(self, name: str, principal: str = "dbo") -> Connection:
        return Connection(self.source(name), principal=principal)

    def target_of(self, name: str) -> str:
        return self.source(name).target.name
