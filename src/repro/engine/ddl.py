"""DDL execution: CREATE/DROP TABLE, INDEX, VIEW, PROCEDURE; GRANT.

``CREATE CACHED VIEW`` is delegated to the MTCache layer through the
database's ``cached_view_handler`` hook — on a cache server it creates the
view's backing storage *and* the replication subscription that keeps it up
to date (paper §4); ``DROP VIEW`` of a cached view goes through the same
hook, which ends that subscription.
"""

from __future__ import annotations

from typing import List

from repro.catalog.objects import ForeignKey, ProcedureDef, TableDef, ViewDef
from repro.common.schema import Column, Schema
from repro.engine.results import Result
from repro.errors import CatalogError, ExecutionError
from repro.sql import ast
from repro.sql.formatter import format_statement


def execute_create_table(database, statement: ast.CreateTable) -> Result:
    columns: List[Column] = []
    primary_key = list(statement.primary_key)
    for definition in statement.columns:
        columns.append(
            Column(
                name=definition.name,
                sql_type=definition.sql_type,
                nullable=definition.nullable and not definition.primary_key,
            )
        )
        if definition.primary_key:
            primary_key.append(definition.name)
    foreign_keys = tuple(
        ForeignKey(fk.columns, fk.ref_table, fk.ref_columns)
        for fk in statement.foreign_keys
    )
    table_def = TableDef(
        name=statement.name,
        schema=Schema(columns),
        primary_key=tuple(primary_key),
        foreign_keys=foreign_keys,
    )
    database.create_storage(table_def)
    return Result(messages=[f"table {statement.name} created"])


def execute_create_index(database, statement: ast.CreateIndex) -> Result:
    from repro.catalog.objects import IndexDef

    target = statement.table
    indexed = database.catalog.maybe_table(target) or database.catalog.maybe_view(target)
    if indexed is None:
        raise CatalogError(f"no table or view {target!r}")
    for column in statement.columns:
        indexed.schema.resolve(column)  # BindError before the catalog changes
    database.catalog.add_index(
        IndexDef(
            name=statement.name,
            table=target,
            columns=statement.columns,
            unique=statement.unique,
            clustered=statement.clustered,
        )
    )
    if database.has_storage(target):
        storage = database.storage_table(target)
        storage.create_index(statement.name, statement.columns, statement.unique)
    database.bump_version()
    return Result(messages=[f"index {statement.name} created"])


def execute_create_view(database, statement: ast.CreateView, select_runner=None) -> Result:
    """Create a view; materialized views are populated immediately.

    ``select_runner() -> (rows, schema)`` executes the defining query
    locally — available on a backend server; on a cache server, cached
    views are populated by replication instead.
    """
    if statement.cached:
        if database.cached_view_handler is None:
            raise ExecutionError(
                "CREATE CACHED VIEW requires an MTCache-enabled database"
            )
        database.cached_view_handler(statement)
        return Result(messages=[f"cached view {statement.name} created"])

    source_text = format_statement(statement)
    if not statement.materialized:
        schema = derive_schema(database, statement.select)
        database.catalog.add_view(
            ViewDef(
                name=statement.name,
                select=statement.select,
                schema=schema,
                materialized=False,
                source_text=source_text,
            )
        )
        database.bump_version()
        return Result(messages=[f"view {statement.name} created"])

    if select_runner is None:
        raise ExecutionError("materialized view creation requires a select runner")
    rows, schema = select_runner()
    database.catalog.add_view(
        ViewDef(
            name=statement.name,
            select=statement.select,
            schema=schema,
            materialized=True,
            source_text=source_text,
        )
    )
    storage = database.create_view_storage(statement.name, schema)
    for row in rows:
        storage.insert(row)
    database.analyze(statement.name)
    return Result(messages=[f"materialized view {statement.name} created ({len(rows)} rows)"])


def derive_schema(database, select: ast.Select) -> Schema:
    """A SELECT's output schema against ``database``, without planning it
    — but bound first, so a name that does not resolve or an operand type
    that does not combine raises here (a view is bound at CREATE; only
    procedures defer name resolution)."""
    from repro.optimizer.planner import Optimizer

    optimizer = Optimizer(database)
    optimizer.bind(select)
    return optimizer._select_output_schema(select)


def execute_create_procedure(database, statement: ast.CreateProcedure) -> Result:
    database.catalog.add_procedure(
        ProcedureDef(
            name=statement.name,
            params=statement.params,
            body=statement.body,
        )
    )
    database.bump_version()
    return Result(messages=[f"procedure {statement.name} created"])


def execute_drop(database, statement: ast.DropObject) -> Result:
    kind = statement.kind
    name = statement.name
    if kind == "TABLE":
        database.catalog.drop_table(name)
        database.drop_storage(name)
    elif kind == "VIEW":
        view = database.catalog.get_view(name)
        if view.cached:
            database.cached_view_handler(statement)  # ends its subscription
        database.catalog.drop_view(name)
        if view.materialized:
            database.drop_storage(name)
    elif kind == "INDEX":
        index = database.catalog.get_index(name)
        database.catalog.drop_index(name)
        if database.has_storage(index.table):
            storage = database.storage_table(index.table)
            if name in storage.indexes:
                storage.drop_index(name)
    elif kind == "PROCEDURE":
        database.catalog.drop_procedure(name)
    else:
        raise ExecutionError(f"cannot drop object kind {kind!r}")
    database.bump_version()
    return Result(messages=[f"{kind.lower()} {name} dropped"])


def execute_grant(database, statement: ast.Grant) -> Result:
    catalog = database.catalog
    name = statement.object_name
    if not (catalog.maybe_table(name) or catalog.maybe_view(name) or catalog.maybe_procedure(name)):
        raise CatalogError(f"no table, view or procedure {name!r}")
    catalog.permissions.grant(statement.permission, name, statement.principal)
    return Result(messages=["grant recorded"])
