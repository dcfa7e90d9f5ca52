"""ODBC-source-style redirection: the transparency mechanism.

In Windows, applications connect to a *logical* ODBC source name that maps
to an actual server. Enabling MTCache for an application is a pure
configuration change: redirect the source from the backend server to the
cache server (paper §4, "Rerouting the application's ODBC sources").

Applications written against :class:`OdbcConnection` never know which
server answers them — the definition of cache transparency.
:class:`OdbcConnection` is a thin subclass of the unified
:class:`repro.client.Connection`, so it speaks the full DBAPI-style
surface (``cursor()``, ``commit()``/``rollback()``) while keeping the
historical ``server``/``server_name`` attributes.

Redirecting a source *invalidates* its live connections: each one
re-resolves against the registry on its next execute — fresh target,
fresh session, any open transaction on the old target rolled back — so
an application holding a connection across the configuration change
transparently follows it. When the new server does not carry the
source's old database, the database is re-resolved from the target
(its shadow database for a cache facade, its default database
otherwise) instead of silently keeping a name the server cannot serve.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Optional

from repro.client.connection import Connection
from repro.errors import DistributedError


class OdbcConnection(Connection):
    """A live connection through a logical source name.

    .. deprecated:: prefer ``repro.client.connect(...)`` for new code;
       this class remains the ODBC-source-shaped facade (and what
       :meth:`OdbcSourceRegistry.connect` hands out).
    """

    def __init__(self, server, database: Optional[str], principal: str = "dbo"):
        super().__init__(server, database=database, principal=principal)
        # Set by OdbcSourceRegistry.connect; a direct OdbcConnection is
        # not registry-managed and never goes stale.
        self._registry: Optional["OdbcSourceRegistry"] = None
        self._source_name: Optional[str] = None
        self._stale = False

    @property
    def server(self) -> Any:
        """The execution target exactly as handed to the constructor
        (historical contract; the base class would unwrap facades)."""
        return self.target

    @property
    def server_name(self) -> str:
        """Which physical server this connection reaches (diagnostics)."""
        return self.target.name

    # -- registry-driven re-resolution -------------------------------------

    def invalidate(self) -> None:
        """Mark the connection stale; it re-resolves on its next execute."""
        self._stale = True

    def _raw_execute(self, sql: str, params: Optional[Dict[str, Any]]):
        if self._stale:
            self._reresolve()
        return super()._raw_execute(sql, params)

    def _reresolve(self) -> None:
        self._stale = False
        if self._registry is None or self._source_name is None:
            return
        # Abandon the old target's transaction (and its latch); if that
        # server is gone, its crash already did and this is a no-op.
        self.rollback()
        server, database = self._registry._resolved_target(self._source_name)
        self.target = server
        self.database = database
        self._reset_session(database)


class OdbcSourceRegistry:
    """Maps logical source names to physical servers."""

    def __init__(self):
        self._sources: Dict[str, Dict[str, Any]] = {}

    def register(self, name: str, server, database: Optional[str] = None) -> None:
        """Define a logical source (initially pointing at the backend)."""
        self._sources[name.lower()] = {
            "server": server,
            "database": database,
            "connections": [],
        }

    def redirect(self, name: str, server, database: Optional[str] = None) -> None:
        """Re-point a source at a different server — no app changes needed.

        Without an explicit ``database``, the old database is kept only
        when the new server actually has it; otherwise the target's own
        default is adopted. Live connections from this source are
        invalidated so they re-resolve on their next execute.
        """
        entry = self._sources.get(name.lower())
        if entry is None:
            raise DistributedError(f"no ODBC source {name!r}")
        if database is None:
            database = self._default_database(server, entry["database"])
        entry["server"] = server
        entry["database"] = database
        live = []
        for ref in entry["connections"]:
            connection = ref()
            if connection is not None:
                connection.invalidate()
                live.append(ref)
        entry["connections"] = live

    @staticmethod
    def _default_database(server, previous: Optional[str]) -> Optional[str]:
        """The database a redirected source should use on ``server``."""
        databases = getattr(server, "databases", None)
        if previous is not None and databases is not None and previous.lower() in databases:
            return previous
        shadow = getattr(server, "shadow_db_name", None)  # CacheServer facade
        if shadow is not None:
            return shadow
        return getattr(server, "default_database", None) or previous

    def _entry(self, name: str) -> Dict[str, Any]:
        entry = self._sources.get(name.lower())
        if entry is None:
            raise DistributedError(f"no ODBC source {name!r}")
        return entry

    def _resolved_target(self, name: str):
        entry = self._entry(name)
        return entry["server"], entry["database"]

    def connect(self, name: str, principal: str = "dbo") -> OdbcConnection:
        entry = self._entry(name)
        connection = OdbcConnection(entry["server"], entry["database"], principal)
        connection._registry = self
        connection._source_name = name.lower()
        entry["connections"].append(weakref.ref(connection))
        return connection

    def target_of(self, name: str) -> str:
        return self._entry(name)["server"].name
