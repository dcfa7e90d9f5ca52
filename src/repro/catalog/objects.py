"""Catalog object descriptors.

These are pure metadata: the storage objects (heaps, B-trees) live in the
engine's :class:`~repro.engine.database.Database`. Keeping metadata separate
is what lets MTCache *shadow* a backend catalog onto a cache server without
copying any data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.schema import Schema
from repro.sql import ast


@dataclass(frozen=True)
class IndexDef:
    """Metadata for an index."""

    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False
    clustered: bool = False


@dataclass(frozen=True)
class ForeignKey:
    """A foreign-key constraint (checked on insert/update when enabled)."""

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]


@dataclass(frozen=True)
class TableDef:
    """Metadata for a base table."""

    name: str
    schema: Schema
    primary_key: Tuple[str, ...] = ()
    foreign_keys: Tuple[ForeignKey, ...] = ()


@dataclass(frozen=True)
class ViewDef:
    """Metadata for a view.

    ``materialized`` views have a backing table named after the view.
    ``cached`` marks an MTCache cached view: a materialized select-project
    view whose contents are maintained by replication from the backend.
    ``source_text`` preserves the original SELECT for publication matching.
    """

    name: str
    select: ast.Select
    schema: Schema
    materialized: bool = False
    cached: bool = False
    source_text: str = ""


@dataclass(frozen=True)
class ProcedureDef:
    """Metadata for a stored procedure: parameters and body AST."""

    name: str
    params: Tuple[ast.ProcedureParam, ...]
    body: Tuple[ast.Statement, ...]
    source_text: str = ""
