"""A database: catalog + storage + statistics + WAL + transactions.

On a backend server, tables carry data. On an MTCache server, a *shadow
database* has the same catalog but its shadow tables are empty and marked
remote (``remote_tables``), with statistics adopted from the backend so
the optimizer costs them as if the data were here.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Set

from repro.catalog import Catalog
from repro.catalog.objects import TableDef
from repro.common.clock import SimulatedClock
from repro.common.schema import Schema
from repro.engine.locks import DatabaseLatch, TableLockManager
from repro.engine.transactions import TransactionManager
from repro.errors import CatalogError
from repro.storage.statistics import TableStatistics
from repro.storage.table import Table
from repro.storage.wal import WriteAheadLog


class Database:
    """One database on a server."""

    def __init__(self, name: str, clock: Optional[SimulatedClock] = None):
        self.name = name
        self.clock = clock or SimulatedClock()
        self.catalog = Catalog()
        self.tables: Dict[str, Table] = {}
        self.statistics: Dict[str, TableStatistics] = {}
        self.wal = WriteAheadLog()
        self.transactions = TransactionManager(self.wal, self.clock)
        # Concurrency control (see repro.engine.locks): statements take the
        # latch shared plus per-table locks; DDL and explicit transactions
        # take the latch exclusive.
        self.latch = DatabaseLatch()
        self.lock_manager = TableLockManager()
        # MTCache configuration: which catalog tables have no local data
        # (their queries must go to the backend), and the linked-server
        # name of that backend.
        self.remote_tables: Set[str] = set()
        self.backend_server: Optional[str] = None
        # Bumped by DDL so cached plans and the view matcher re-validate.
        self.version = 0
        # Seconds the cached views here may lag the backend (what
        # ``STALENESS()``, the ``WITH FRESHNESS`` guard, evaluates to); the
        # MTCache layer installs the cache's ``staleness``.
        self.replication_staleness: Callable[[], float] = lambda: 0.0
        # Installed by the MTCache layer: intercepts CREATE CACHED VIEW
        # and the DROP VIEW of a cached view.
        self.cached_view_handler: Optional[Callable] = None
        # Backlink to the owning server (set by Server.create_database);
        # used to resolve four-part linked-server names during planning.
        self.owner_server = None

    # -- storage ---------------------------------------------------------

    def create_storage(self, table_def: TableDef) -> Table:
        """Register a table definition and create its heap."""
        self.catalog.add_table(table_def)
        table = Table(table_def.name, table_def.schema, table_def.primary_key)
        self.tables[table_def.name.lower()] = table
        self.bump_version()
        return table

    def create_view_storage(self, name: str, schema: Schema, primary_key=()) -> Table:
        """Create the backing heap for a materialized view."""
        table = Table(name, schema, primary_key)
        self.tables[name.lower()] = table
        self.bump_version()
        return table

    def storage_table(self, name: str) -> Table:
        table = self.tables.get(name.lower())
        if table is None:
            raise CatalogError(f"no storage for {name!r} in database {self.name!r}")
        return table

    def has_storage(self, name: str) -> bool:
        return name.lower() in self.tables

    def drop_storage(self, name: str) -> None:
        self.tables.pop(name.lower(), None)
        self.statistics.pop(name.lower(), None)
        self.bump_version()

    def bulk_load(self, table_name: str, rows: Iterable) -> int:
        """Load rows directly into storage, bypassing the WAL.

        Intended for initial database population (before any subscriber
        exists); replicated environments snapshot after bulk load.
        """
        return self.storage_table(table_name).insert_many(rows)

    # -- statistics ---------------------------------------------------------

    def analyze(self, name: str) -> TableStatistics:
        """(Re)build statistics from local storage (the ANALYZE path)."""
        table = self.storage_table(name)
        stats = TableStatistics.build(
            name, table.schema.names, list(table.rows.values())
        )
        self.statistics[name.lower()] = stats
        self.bump_version()
        return stats

    def analyze_all(self) -> None:
        for name in list(self.tables):
            self.analyze(name)

    def set_statistics(self, name: str, stats: TableStatistics) -> None:
        """Adopt statistics computed elsewhere (shadow databases)."""
        self.statistics[name.lower()] = stats
        self.bump_version()

    def stats_for(self, name: str) -> Optional[TableStatistics]:
        """The statistics a plan may trust: an ANALYZE that saw zero rows
        is no statistics (its NDV of 1 would cost every equality as a
        full scan)."""
        stats = self.statistics.get(name.lower())
        return stats if stats is not None and stats.row_count > 0 else None

    # -- MTCache hooks ---------------------------------------------------------

    def is_remote_table(self, name: str) -> bool:
        return name.lower() in self.remote_tables

    def mark_remote(self, names: Iterable[str], backend_server: str) -> None:
        """Mark shadow tables as backend-resident."""
        self.remote_tables.update(name.lower() for name in names)
        self.backend_server = backend_server
        self.bump_version()

    def bump_version(self) -> None:
        self.version += 1

    def __repr__(self) -> str:
        kind = "shadow" if self.remote_tables else "base"
        return f"<Database {self.name} ({kind}) tables={len(self.tables)}>"
