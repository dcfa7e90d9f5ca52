"""Workload SQL lint (analysis pass 2).

Statically binds SQL — stored procedures, cached-view DDL, generated
shadow/grant scripts — against a catalog, with no execution. Reported
diagnostics:

* ``unknown-table`` / ``unknown-column`` / ``ambiguous-column`` — names
  that do not resolve against the catalog or the statement's scope;
* ``arity`` / ``insert-arity`` — select-list and INSERT row/column
  count mismatches;
* ``type-mismatch`` — comparisons, arithmetic and INSERT values whose
  operand types cannot widen to a common type;
* ``dml-target`` — DML against a view, in particular a cached article
  (cached views are maintained by replication and never updatable);
* ``undeclared-parameter`` — ``@name`` references never declared as a
  procedure parameter nor assigned by DECLARE/SET/SELECT-assignment;
* ``exec-args`` — EXEC calls with unknown procedures, unknown argument
  names, or missing required arguments;
* ``unknown-object`` — GRANT/CREATE INDEX targets that do not exist.

Scripts are linted in order with a catalog *overlay*: a CREATE TABLE
earlier in the script satisfies a CREATE INDEX later in it, so the
generated shadow script lints against an empty database exactly the way
it executes against one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.catalog.catalog import Catalog
from repro.catalog.objects import ProcedureDef, TableDef
from repro.common.schema import Column, Schema
from repro.common.types import BOOLEAN, SqlType, common_type, is_numeric
from repro.errors import AnalysisError, SqlError, TypeCheckError
from repro.sql import ast as sql_ast
from repro.sql import parse_statements

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")
_ARITHMETIC = ("+", "-", "*", "/", "%")


def _compatible(left: Optional[SqlType], right: Optional[SqlType]) -> bool:
    """Lenient compatibility: unknown types pass, BIT mixes with numerics
    (the engine coerces 0/1 freely), everything else follows
    :func:`~repro.common.types.common_type` widening."""
    if left is None or right is None:
        return True
    if left.kind is BOOLEAN.kind and is_numeric(right):
        return True
    if right.kind is BOOLEAN.kind and is_numeric(left):
        return True
    try:
        common_type(left, right)
    except TypeCheckError:
        return False
    return True


@dataclass
class _Source:
    """One FROM-clause binding: alias plus column name -> type.

    ``opaque`` sources (unresolvable or remote four-part names) accept
    any column, so one unknown table does not cascade into a column
    diagnostic per reference.
    """

    alias: str
    columns: Dict[str, Optional[SqlType]] = field(default_factory=dict)
    opaque: bool = False


class _Scope:
    """Name resolution over the FROM-clause sources of one SELECT."""

    def __init__(self, sources: List[_Source]):
        self.sources = sources
        self.has_opaque = any(source.opaque for source in sources)

    def aliases(self) -> List[str]:
        return [source.alias for source in self.sources]

    def resolve(
        self, name: str, qualifier: Optional[str]
    ) -> Tuple[str, Optional[SqlType]]:
        """Return ("ok"|"unknown"|"ambiguous", type)."""
        key = name.lower()
        if qualifier is not None:
            for source in self.sources:
                if source.alias.lower() == qualifier.lower():
                    if source.opaque or key in source.columns:
                        return "ok", source.columns.get(key)
                    return "unknown", None
            return "unknown", None
        hits = [
            source.columns.get(key)
            for source in self.sources
            if not source.opaque and key in source.columns
        ]
        if len(hits) == 1:
            return "ok", hits[0]
        if len(hits) > 1:
            return "ambiguous", None
        if self.has_opaque:
            return "ok", None
        return "unknown", None


class SqlLinter:
    """Binds statements against a base catalog plus a script overlay."""

    def __init__(self, catalog: Optional[Catalog] = None):
        self.catalog = catalog
        self._overlay_tables: Dict[str, TableDef] = {}
        self._overlay_views: Dict[str, _Source] = {}
        self._overlay_procedures: Dict[str, sql_ast.CreateProcedure] = {}

    # -- entry points ----------------------------------------------------

    def lint_procedure(self, procedure: ProcedureDef) -> List[AnalysisError]:
        """Statically bind one stored procedure body."""
        location = f"procedure {procedure.name}"
        declared: Dict[str, Optional[SqlType]] = {
            param.name: param.sql_type for param in procedure.params
        }
        self._collect_assignments(procedure.body, declared)
        diagnostics: List[AnalysisError] = []
        for statement in procedure.body:
            self._lint_statement(statement, declared, diagnostics, location)
        return diagnostics

    def lint_sql(self, sql_text: str, location: str = "script") -> List[AnalysisError]:
        """Parse and bind a SQL script, building the overlay as it goes."""
        diagnostics: List[AnalysisError] = []
        try:
            statements = parse_statements(sql_text)
        except SqlError as exc:
            diagnostics.append(
                AnalysisError("parse", f"script does not parse: {exc}", location=location)
            )
            return diagnostics
        declared: Dict[str, Optional[SqlType]] = {}
        self._collect_assignments(statements, declared)
        for statement in statements:
            self._lint_statement(statement, declared, diagnostics, location)
        return diagnostics

    # -- declaration collection ------------------------------------------

    def _collect_assignments(
        self, statements, declared: Dict[str, Optional[SqlType]]
    ) -> None:
        """Record every variable a body declares or assigns, anywhere.

        A parameter is "declared" when it is a procedure parameter, a
        DECLARE, a SET target, or a SELECT @x = ... target; order is not
        enforced (mirrors the interpreter's single frame).
        """
        pending = list(statements)
        while pending:
            statement = pending.pop()
            if isinstance(statement, sql_ast.Declare):
                declared[statement.name] = statement.sql_type
            elif isinstance(statement, sql_ast.SetVariable):
                declared.setdefault(statement.name, None)
            elif isinstance(statement, sql_ast.Select):
                for item in statement.items:
                    if item.target_parameter is not None:
                        declared.setdefault(item.target_parameter, None)
            elif isinstance(statement, sql_ast.IfStatement):
                pending.extend(statement.then_body)
                pending.extend(statement.else_body)
            elif isinstance(statement, sql_ast.WhileStatement):
                pending.extend(statement.body)

    # -- object resolution ------------------------------------------------

    def _resolve_table(self, name: str) -> Optional[TableDef]:
        table = self._overlay_tables.get(name.lower())
        if table is not None:
            return table
        if self.catalog is not None:
            return self.catalog.maybe_table(name)
        return None

    def _resolve_view(self, name: str):
        view = self._overlay_views.get(name.lower())
        if view is not None:
            return view
        if self.catalog is not None:
            return self.catalog.maybe_view(name)
        return None

    def _object_exists(self, name: str) -> bool:
        if self._resolve_table(name) is not None or self._resolve_view(name) is not None:
            return True
        if name.lower() in self._overlay_procedures:
            return True
        return self.catalog is not None and self.catalog.maybe_procedure(name) is not None

    def _source_for(
        self,
        ref: sql_ast.TableName,
        diagnostics: List[AnalysisError],
        location: str,
    ) -> _Source:
        alias = ref.binding_name
        if ref.server is not None:
            # Four-part linked-server name: the remote catalog is not
            # visible here, accept any column.
            return _Source(alias, opaque=True)
        name = ref.object_name
        table = self._resolve_table(name)
        if table is not None:
            columns = {
                column.name.lower(): column.sql_type for column in table.schema
            }
            return _Source(alias, columns)
        view = self._resolve_view(name)
        if isinstance(view, _Source):
            return _Source(alias, dict(view.columns), opaque=view.opaque)
        if view is not None:
            columns = {
                column.name.lower(): column.sql_type for column in view.schema
            }
            return _Source(alias, columns)
        diagnostics.append(
            AnalysisError("unknown-table", f"unknown table or view {name!r}", location=location)
        )
        return _Source(alias, opaque=True)

    # -- statement dispatch ----------------------------------------------

    def _lint_statement(
        self,
        statement: sql_ast.Statement,
        declared: Dict[str, Optional[SqlType]],
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        if isinstance(statement, sql_ast.Select):
            self._lint_select(statement, declared, diagnostics, location)
        elif isinstance(statement, sql_ast.UnionAll):
            arities = set()
            for branch in statement.branches:
                self._lint_select(branch, declared, diagnostics, location)
                if not any(isinstance(i.expression, sql_ast.Star) for i in branch.items):
                    arities.add(len(branch.items))
            if len(arities) > 1:
                diagnostics.append(
                    AnalysisError(
                        "arity",
                        "UNION ALL branches select different column counts",
                        location=location,
                    )
                )
        elif isinstance(statement, sql_ast.Insert):
            self._lint_insert(statement, declared, diagnostics, location)
        elif isinstance(statement, sql_ast.Update):
            self._lint_update(statement, declared, diagnostics, location)
        elif isinstance(statement, sql_ast.Delete):
            self._lint_delete(statement, declared, diagnostics, location)
        elif isinstance(statement, sql_ast.Declare):
            if statement.initial is not None:
                self._check_expression(
                    statement.initial, _Scope([]), declared, diagnostics, location
                )
        elif isinstance(statement, sql_ast.SetVariable):
            self._check_expression(
                statement.value, _Scope([]), declared, diagnostics, location
            )
        elif isinstance(statement, sql_ast.IfStatement):
            self._check_expression(
                statement.condition, _Scope([]), declared, diagnostics, location
            )
            for child in statement.then_body + statement.else_body:
                self._lint_statement(child, declared, diagnostics, location)
        elif isinstance(statement, sql_ast.WhileStatement):
            self._check_expression(
                statement.condition, _Scope([]), declared, diagnostics, location
            )
            for child in statement.body:
                self._lint_statement(child, declared, diagnostics, location)
        elif isinstance(statement, (sql_ast.ReturnStatement, sql_ast.PrintStatement)):
            value = getattr(statement, "value", None)
            if value is not None:
                self._check_expression(value, _Scope([]), declared, diagnostics, location)
        elif isinstance(statement, sql_ast.Execute):
            self._lint_execute(statement, declared, diagnostics, location)
        elif isinstance(statement, sql_ast.CreateTable):
            self._register_table(statement, diagnostics, location)
        elif isinstance(statement, sql_ast.CreateIndex):
            self._lint_create_index(statement, diagnostics, location)
        elif isinstance(statement, sql_ast.CreateView):
            self._lint_create_view(statement, declared, diagnostics, location)
        elif isinstance(statement, sql_ast.CreateProcedure):
            self._overlay_procedures[statement.name.lower()] = statement
            body_declared: Dict[str, Optional[SqlType]] = {
                param.name: param.sql_type for param in statement.params
            }
            self._collect_assignments(statement.body, body_declared)
            for child in statement.body:
                self._lint_statement(
                    child, body_declared, diagnostics, f"{location}:{statement.name}"
                )
        elif isinstance(statement, sql_ast.Grant):
            if not self._object_exists(statement.object_name):
                diagnostics.append(
                    AnalysisError(
                        "unknown-object",
                        f"GRANT on unknown object {statement.object_name!r}",
                        location=location,
                    )
                )
        elif isinstance(statement, sql_ast.DropObject):
            self._overlay_tables.pop(statement.name.lower(), None)
            self._overlay_views.pop(statement.name.lower(), None)
            self._overlay_procedures.pop(statement.name.lower(), None)
        # Transactions / EXPLAIN etc.: nothing to bind.

    # -- SELECT -----------------------------------------------------------

    def _build_scope(
        self,
        from_clause: Optional[sql_ast.TableRef],
        declared: Dict[str, Optional[SqlType]],
        diagnostics: List[AnalysisError],
        location: str,
    ) -> Tuple[_Scope, List[sql_ast.Expression]]:
        sources: List[_Source] = []
        conditions: List[sql_ast.Expression] = []

        def visit(ref: Optional[sql_ast.TableRef]) -> None:
            if ref is None:
                return
            if isinstance(ref, sql_ast.JoinRef):
                visit(ref.left)
                visit(ref.right)
                if ref.condition is not None:
                    conditions.append(ref.condition)
            elif isinstance(ref, sql_ast.DerivedTable):
                self._lint_select(ref.select, declared, diagnostics, location)
                sources.append(
                    _Source(ref.alias, self._derive_columns(ref.select, declared))
                )
            elif isinstance(ref, sql_ast.TableName):
                sources.append(self._source_for(ref, diagnostics, location))

        visit(from_clause)
        return _Scope(sources), conditions

    def _derive_columns(
        self, select: sql_ast.Select, declared: Dict[str, Optional[SqlType]]
    ) -> Dict[str, Optional[SqlType]]:
        """Output columns of a subselect (for derived tables and views)."""
        scope, _ = self._build_scope(select.from_clause, declared, [], "")
        columns: Dict[str, Optional[SqlType]] = {}
        for item in select.items:
            expression = item.expression
            if isinstance(expression, sql_ast.Star):
                for source in scope.sources:
                    if expression.qualifier is not None and (
                        source.alias.lower() != expression.qualifier.lower()
                    ):
                        continue
                    columns.update(source.columns)
                continue
            name = item.alias
            if name is None and isinstance(expression, sql_ast.ColumnRef):
                name = expression.name
            if name is None:
                continue
            columns[name.lower()] = self._infer_type(expression, scope, declared)
        return columns

    def _lint_select(
        self,
        select: sql_ast.Select,
        declared: Dict[str, Optional[SqlType]],
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        scope, join_conditions = self._build_scope(
            select.from_clause, declared, diagnostics, location
        )
        for item in select.items:
            if isinstance(item.expression, sql_ast.Star):
                qualifier = item.expression.qualifier
                if qualifier is not None and qualifier.lower() not in (
                    alias.lower() for alias in scope.aliases()
                ):
                    diagnostics.append(
                        AnalysisError(
                            "unknown-table",
                            f"'{qualifier}.*' references no FROM-clause source",
                            location=location,
                        )
                    )
                continue
            self._check_expression(item.expression, scope, declared, diagnostics, location)
        for condition in join_conditions:
            self._check_expression(condition, scope, declared, diagnostics, location)
        if select.top is not None:
            self._check_expression(select.top, scope, declared, diagnostics, location)
        if select.where is not None:
            self._check_expression(select.where, scope, declared, diagnostics, location)
        for expression in select.group_by:
            self._check_expression(expression, scope, declared, diagnostics, location)
        if select.having is not None:
            self._check_expression(select.having, scope, declared, diagnostics, location)
        # ORDER BY may reference select-list output aliases (T-SQL scoping).
        output_aliases = {
            item.alias.lower() for item in select.items if item.alias is not None
        }
        for order in select.order_by:
            expression = order.expression
            if (
                isinstance(expression, sql_ast.ColumnRef)
                and expression.qualifier is None
                and expression.name.lower() in output_aliases
            ):
                continue
            self._check_expression(expression, scope, declared, diagnostics, location)

    # -- DML --------------------------------------------------------------

    def _dml_target(
        self,
        statement,
        verb: str,
        diagnostics: List[AnalysisError],
        location: str,
    ) -> Optional[TableDef]:
        """Resolve a DML target; reports view targets and unknown names."""
        table_ref: sql_ast.TableName = statement.table
        if table_ref.server is not None:
            return None  # forwarded to the owning server, not checkable here
        name = table_ref.object_name
        table = self._resolve_table(name)
        if table is not None:
            return table
        view = self._resolve_view(name)
        if view is not None:
            cached = bool(getattr(view, "cached", False))
            what = "cached article" if cached else "view"
            diagnostics.append(
                AnalysisError(
                    "dml-target",
                    f"{verb} against non-updatable {what} {name!r}"
                    + (" (cached views are maintained by replication)" if cached else ""),
                    location=location,
                )
            )
            return None
        diagnostics.append(
            AnalysisError("unknown-table", f"{verb} against unknown table {name!r}", location=location)
        )
        return None

    def _lint_insert(
        self,
        statement: sql_ast.Insert,
        declared: Dict[str, Optional[SqlType]],
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        table = self._dml_target(statement, "INSERT", diagnostics, location)
        target_types: List[Optional[SqlType]] = []
        if table is not None:
            schema = table.schema
            if statement.columns:
                for name in statement.columns:
                    position = schema.maybe_resolve(name)
                    if position is None:
                        diagnostics.append(
                            AnalysisError(
                                "unknown-column",
                                f"INSERT names unknown column {name!r} "
                                f"of table {table.name!r}",
                                location=location,
                            )
                        )
                        target_types.append(None)
                    else:
                        target_types.append(schema[position].sql_type)
            else:
                target_types = [column.sql_type for column in schema]
        width = len(target_types)
        scope = _Scope([])
        for row in statement.rows:
            if width and len(row) != width:
                diagnostics.append(
                    AnalysisError(
                        "insert-arity",
                        f"INSERT row has {len(row)} values for {width} columns",
                        location=location,
                    )
                )
            for position, expression in enumerate(row):
                self._check_expression(expression, scope, declared, diagnostics, location)
                if position < width:
                    value_type = self._infer_type(expression, scope, declared)
                    if not _compatible(target_types[position], value_type):
                        diagnostics.append(
                            AnalysisError(
                                "type-mismatch",
                                f"INSERT value {position + 1} has type {value_type}, "
                                f"column expects {target_types[position]}",
                                location=location,
                            )
                        )
        if statement.select is not None:
            self._lint_select(statement.select, declared, diagnostics, location)
            items = statement.select.items
            if width and not any(
                isinstance(item.expression, sql_ast.Star) for item in items
            ):
                if len(items) != width:
                    diagnostics.append(
                        AnalysisError(
                            "insert-arity",
                            f"INSERT ... SELECT provides {len(items)} columns "
                            f"for {width} targets",
                            location=location,
                        )
                    )

    def _lint_update(
        self,
        statement: sql_ast.Update,
        declared: Dict[str, Optional[SqlType]],
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        table = self._dml_target(statement, "UPDATE", diagnostics, location)
        scope = _Scope(
            [
                _Source(
                    statement.table.binding_name,
                    {c.name.lower(): c.sql_type for c in table.schema},
                )
            ]
            if table is not None
            else []
        )
        if table is None and statement.table.server is None:
            scope = _Scope([_Source(statement.table.binding_name, opaque=True)])
        for name, expression in statement.assignments:
            column_type: Optional[SqlType] = None
            if table is not None:
                position = table.schema.maybe_resolve(name)
                if position is None:
                    diagnostics.append(
                        AnalysisError(
                            "unknown-column",
                            f"UPDATE assigns unknown column {name!r} "
                            f"of table {table.name!r}",
                            location=location,
                        )
                    )
                else:
                    column_type = table.schema[position].sql_type
            self._check_expression(expression, scope, declared, diagnostics, location)
            value_type = self._infer_type(expression, scope, declared)
            if not _compatible(column_type, value_type):
                diagnostics.append(
                    AnalysisError(
                        "type-mismatch",
                        f"UPDATE assigns {value_type} to column {name!r} "
                        f"of type {column_type}",
                        location=location,
                    )
                )
        if statement.where is not None:
            self._check_expression(statement.where, scope, declared, diagnostics, location)

    def _lint_delete(
        self,
        statement: sql_ast.Delete,
        declared: Dict[str, Optional[SqlType]],
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        table = self._dml_target(statement, "DELETE", diagnostics, location)
        if table is not None:
            scope = _Scope(
                [
                    _Source(
                        statement.table.binding_name,
                        {c.name.lower(): c.sql_type for c in table.schema},
                    )
                ]
            )
        else:
            scope = _Scope([_Source(statement.table.binding_name, opaque=True)])
        if statement.where is not None:
            self._check_expression(statement.where, scope, declared, diagnostics, location)

    # -- EXEC / DDL --------------------------------------------------------

    def _lint_execute(
        self,
        statement: sql_ast.Execute,
        declared: Dict[str, Optional[SqlType]],
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        scope = _Scope([])
        for _, expression in statement.arguments:
            self._check_expression(expression, scope, declared, diagnostics, location)
        if len(statement.procedure) == 4:
            return  # remote EXEC: target catalog not visible here
        name = statement.procedure[-1]
        overlay = self._overlay_procedures.get(name.lower())
        if overlay is not None:
            params = overlay.params
        else:
            procedure = (
                self.catalog.maybe_procedure(name) if self.catalog is not None else None
            )
            if procedure is None:
                # Unknown locally: the engine forwards the call to the
                # backend, so absence is only reportable when there is a
                # catalog that should contain it.
                if self.catalog is not None:
                    diagnostics.append(
                        AnalysisError(
                            "exec-args",
                            f"EXEC of unknown procedure {name!r}",
                            severity="warning",
                            location=location,
                        )
                    )
                return
            params = procedure.params
        named = {arg_name for arg_name, _ in statement.arguments if arg_name is not None}
        positional = sum(1 for arg_name, _ in statement.arguments if arg_name is None)
        param_names = [param.name for param in params]
        for arg_name in named:
            if arg_name not in param_names:
                diagnostics.append(
                    AnalysisError(
                        "exec-args",
                        f"EXEC {name} passes unknown argument @{arg_name}",
                        location=location,
                    )
                )
        if positional > len(params):
            diagnostics.append(
                AnalysisError(
                    "exec-args",
                    f"EXEC {name} passes {positional} positional arguments "
                    f"for {len(params)} parameters",
                    location=location,
                )
            )
        for position, param in enumerate(params):
            provided = position < positional or param.name in named
            if not provided and param.default is None:
                diagnostics.append(
                    AnalysisError(
                        "exec-args",
                        f"EXEC {name} misses required argument @{param.name}",
                        location=location,
                    )
                )

    def _register_table(
        self,
        statement: sql_ast.CreateTable,
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        columns = [
            Column(column.name, column.sql_type, nullable=column.nullable)
            for column in statement.columns
        ]
        schema = Schema(columns)
        names = {column.name.lower() for column in columns}
        for key_column in statement.primary_key:
            if key_column.lower() not in names:
                diagnostics.append(
                    AnalysisError(
                        "unknown-column",
                        f"PRIMARY KEY names unknown column {key_column!r} "
                        f"of table {statement.name!r}",
                        location=location,
                    )
                )
        self._overlay_tables[statement.name.lower()] = TableDef(
            statement.name, schema, tuple(statement.primary_key)
        )

    def _lint_create_index(
        self,
        statement: sql_ast.CreateIndex,
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        table = self._resolve_table(statement.table)
        if table is None:
            # Materialized views also take indexes; accept view targets.
            if self._resolve_view(statement.table) is not None:
                return
            diagnostics.append(
                AnalysisError(
                    "unknown-object",
                    f"CREATE INDEX on unknown table {statement.table!r}",
                    location=location,
                )
            )
            return
        for name in statement.columns:
            if table.schema.maybe_resolve(name) is None:
                diagnostics.append(
                    AnalysisError(
                        "unknown-column",
                        f"index {statement.name!r} names unknown column {name!r} "
                        f"of table {table.name!r}",
                        location=location,
                    )
                )

    def _lint_create_view(
        self,
        statement: sql_ast.CreateView,
        declared: Dict[str, Optional[SqlType]],
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        self._lint_select(statement.select, declared, diagnostics, location)
        source = _Source(
            statement.name, self._derive_columns(statement.select, declared)
        )
        self._overlay_views[statement.name.lower()] = source

    # -- expressions -------------------------------------------------------

    def _check_expression(
        self,
        expression: sql_ast.Expression,
        scope: _Scope,
        declared: Dict[str, Optional[SqlType]],
        diagnostics: List[AnalysisError],
        location: str,
    ) -> None:
        for node in sql_ast.walk_expression(expression):
            if isinstance(node, sql_ast.ColumnRef):
                status, _ = scope.resolve(node.name, node.qualifier)
                if status == "unknown":
                    target = (
                        f"{node.qualifier}.{node.name}" if node.qualifier else node.name
                    )
                    diagnostics.append(
                        AnalysisError(
                            "unknown-column", f"unknown column {target!r}", location=location
                        )
                    )
                elif status == "ambiguous":
                    diagnostics.append(
                        AnalysisError(
                            "ambiguous-column",
                            f"ambiguous column {node.name!r}",
                            location=location,
                        )
                    )
            elif isinstance(node, sql_ast.Parameter):
                if node.name not in declared:
                    diagnostics.append(
                        AnalysisError(
                            "undeclared-parameter",
                            f"@{node.name} is never declared or assigned",
                            location=location,
                        )
                    )
            elif isinstance(node, (sql_ast.InSubquery, sql_ast.Exists, sql_ast.ScalarSubquery)):
                self._lint_select(node.subquery, declared, diagnostics, location)
            elif isinstance(node, sql_ast.BinaryOp) and node.op in (
                _COMPARISONS + _ARITHMETIC
            ):
                left = self._infer_type(node.left, scope, declared)
                right = self._infer_type(node.right, scope, declared)
                if not _compatible(left, right):
                    kind = "comparison" if node.op in _COMPARISONS else "arithmetic"
                    diagnostics.append(
                        AnalysisError(
                            "type-mismatch",
                            f"{kind} {node.op!r} between incompatible types "
                            f"{left} and {right}",
                            location=location,
                        )
                    )
            elif isinstance(node, sql_ast.Between):
                operand = self._infer_type(node.operand, scope, declared)
                for bound in (node.low, node.high):
                    bound_type = self._infer_type(bound, scope, declared)
                    if not _compatible(operand, bound_type):
                        diagnostics.append(
                            AnalysisError(
                                "type-mismatch",
                                f"BETWEEN bound type {bound_type} is incompatible "
                                f"with operand type {operand}",
                                location=location,
                            )
                        )

    @staticmethod
    def _infer_type(
        expression: sql_ast.Expression,
        scope: _Scope,
        declared: Dict[str, Optional[SqlType]],
    ) -> Optional[SqlType]:
        def column_type(ref: sql_ast.ColumnRef) -> Optional[SqlType]:
            status, sql_type = scope.resolve(ref.name, ref.qualifier)
            return sql_type if status == "ok" else None

        return sql_ast.infer_type(expression, column_type, declared.get)


def lint_workload(
    database: Any,
    scripts: Optional[Dict[str, str]] = None,
) -> List[AnalysisError]:
    """Lint every stored procedure in a database, plus optional scripts.

    ``scripts`` maps location labels to SQL text (e.g. the generated
    shadow and grant scripts, or the cached-view DDL); each script lints
    against the database's catalog with its own overlay.
    """
    diagnostics: List[AnalysisError] = []
    catalog = database.catalog
    for procedure in catalog.procedures.values():
        diagnostics.extend(SqlLinter(catalog).lint_procedure(procedure))
    for location, sql_text in (scripts or {}).items():
        diagnostics.extend(SqlLinter(catalog).lint_sql(sql_text, location=location))
    return diagnostics
