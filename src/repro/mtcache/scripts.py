"""Setup-script generation (paper §4).

Setting up an MTCache server uses two SQL scripts:

1. an automatically generated script that creates the shadow database —
   tables, indexes and views matching the target database on the backend
   (this module generates it from the backend catalog, playing the role of
   SQL Server's Enterprise Manager scripting; the paper's small
   augmentation application — statistics and permissions — is
   ``MTCacheDeployment``'s provisioning step, which copies them);
2. a manually written script creating the cached materialized views
   (``CREATE CACHED VIEW ...``), which the cache server intercepts to
   provision replication subscriptions.
"""

from __future__ import annotations

from typing import List

from repro.catalog import Catalog


def _column_ddl(column) -> str:
    nullability = "" if column.nullable else " NOT NULL"
    return f"{column.name} {column.sql_type}{nullability}"


def generate_shadow_script(catalog: Catalog, only_tables=None) -> str:
    """Render the shadow-database DDL for a backend catalog.

    The script creates every table (with primary keys), every index and
    every non-materialized view. Materialized views on the backend are
    scripted as plain tables' worth of metadata is not needed: MTCache
    treats backend materialized views as cacheable sources, and their
    shadow entries are created the same way as tables when present.

    ``only_tables`` restricts the script to the named tables (and their
    indexes) — the paper's §7 minimal-shadowing suggestion.
    """
    wanted = (
        None if only_tables is None else {name.lower() for name in only_tables}
    )
    statements: List[str] = []
    for table in catalog.tables.values():
        if wanted is not None and table.name.lower() not in wanted:
            continue
        columns = ", ".join(_column_ddl(column) for column in table.schema)
        pk = ""
        if table.primary_key:
            pk = f", PRIMARY KEY ({', '.join(table.primary_key)})"
        statements.append(f"CREATE TABLE {table.name} ({columns}{pk})")
    for index in catalog.indexes.values():
        if wanted is not None and index.table.lower() not in wanted:
            continue
        unique = "UNIQUE " if index.unique else ""
        columns = ", ".join(index.columns)
        statements.append(
            f"CREATE {unique}INDEX {index.name} ON {index.table} ({columns})"
        )
    for view in catalog.views.values():
        if view.materialized or wanted is not None:
            continue
        statements.append(view.source_text or f"-- view {view.name} (no source text)")
    return ";\n".join(statements) + (";\n" if statements else "")
