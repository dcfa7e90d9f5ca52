"""Sharding policy: where data lives — and nothing else.

The paper asks the DBA for one kind of declaration, the cached views,
and derives the rest (shadow catalog, publication, subscriptions, the
local/remote choice per statement). A :class:`ShardingPolicy` keeps to
that: it declares

* ``views`` — ``CREATE CACHED VIEW`` statements, written exactly as a
  single cache would run them;
* ``partitions`` — which of their source tables split across shards,
  and on which key column;
* ``key_domain`` — the integer key range the shards tile.

:class:`~repro.sharding.deployment.ShardedDeployment` derives the
provisioning from it: a view over a partitioned table gets the shard's
slice (``key BETWEEN lo AND hi``) ANDed into its WHERE clause, so the
replication article — and with it the shard's storage and apply work —
covers only the slice; every other view is carried in full by every
shard (the broadcast/dimension-table choice); the views' source tables
are the shadowed catalog. Where a *statement* goes is not declared at
all: :func:`repro.sharding.routing.decide` derives it from the statement
and the catalog, and the procedures copied to the shards are exactly the
ones it routes there.

:func:`tpcw_sharding_policy` is the TPC-W instance: the paper's four
cached views, with **item** and **order_line** partitioned on the item
id (they co-partition — order lines live with the item they reference,
which is what the bestseller-style joins want) and **author** and
**orders** broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Tuple

from repro.errors import CatalogError
from repro.sql import ast, parse
from repro.tpcw.config import TPCWConfig


@dataclass(frozen=True)
class TablePartition:
    """One horizontally partitioned table."""

    table: str  # base table on the backend
    key_column: str  # the partition key (a column of ``table``)


@dataclass
class ShardingPolicy:
    """The declarative description of a sharded cache tier."""

    key_domain: Tuple[int, int]  # shared key domain of the partitioned tables
    partitions: Dict[str, TablePartition] = field(default_factory=dict)
    views: List[str] = field(default_factory=list)  # CREATE CACHED VIEW ...

    @cached_property
    def view_statements(self) -> Tuple[ast.CreateView, ...]:
        """``views`` parsed, once: ``ParseError`` on malformed text,
        ``CatalogError`` on anything but a cached view over one table."""
        return tuple(_cached_view(ddl) for ddl in self.views)

    @cached_property
    def source_tables(self) -> FrozenSet[str]:
        """The views' source tables: what every shard shadows."""
        return frozenset(source_table(view).lower() for view in self.view_statements)


def _cached_view(ddl: str) -> ast.CreateView:
    statement = parse(ddl)
    if not (
        isinstance(statement, ast.CreateView)
        and statement.cached
        and isinstance(statement.select.from_clause, ast.TableName)
    ):
        raise CatalogError(f"not a CREATE CACHED VIEW over one table: {ddl!r}")
    return statement


def source_table(view: ast.CreateView) -> str:
    """The table a policy view selects from."""
    from_clause = view.select.from_clause
    assert isinstance(from_clause, ast.TableName)
    return from_clause.object_name


def tpcw_sharding_policy(config: TPCWConfig) -> ShardingPolicy:
    """The TPC-W policy: the paper's cached views, item/order_line
    partitioned by item id."""
    from repro.tpcw.setup import CACHED_VIEW_DDL

    return ShardingPolicy(
        key_domain=(1, config.num_items),
        partitions={
            "item": TablePartition(table="item", key_column="i_id"),
            "order_line": TablePartition(table="order_line", key_column="ol_i_id"),
        },
        views=list(CACHED_VIEW_DDL),
    )
