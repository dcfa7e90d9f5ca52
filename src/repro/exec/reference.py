"""A naive reference evaluator for SELECT statements.

Executes a SELECT AST by brute force — full scans, nested-loop joins, no
indexes, no views-as-data, no optimizer — directly against a database's
storage. It exists as a *test oracle*: the optimizer may pick any plan it
likes (index seeks, hash joins, dynamic plans, remote pushdown), but its
results must match this evaluator row-for-row (as multisets; ordered when
the query has ORDER BY).

Supported surface mirrors the planner's: inner/left/cross joins, WHERE,
GROUP BY / HAVING, aggregates (with DISTINCT), ORDER BY (including select
aliases), TOP, DISTINCT, derived tables, uncorrelated IN/EXISTS/scalar
subqueries, parameters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.common.schema import Column, Schema
from repro.common.types import FLOAT
from repro.errors import ExecutionError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import ExpressionCompiler, evaluate
from repro.sql import ast


def evaluate_select(
    database,
    select: ast.Select,
    params: Optional[Dict[str, Any]] = None,
) -> Tuple[Schema, List[Tuple]]:
    """Evaluate a SELECT naively; returns (schema, rows)."""
    evaluator = _ReferenceEvaluator(database, params or {})
    return evaluator.select(select)


class _ReferenceEvaluator:
    def __init__(self, database, params: Dict[str, Any]):
        self.database = database
        self.ctx = ExecutionContext(database=database, params=params)
        self.ctx.subquery_executor = self._run_subquery

    def _run_subquery(self, select: ast.Select, ctx: ExecutionContext) -> List[Tuple]:
        _, rows = _ReferenceEvaluator(self.database, ctx.params).select(select)
        return rows

    # -- FROM ------------------------------------------------------------------

    def table_ref(self, ref: ast.TableRef) -> Tuple[Schema, List[Tuple]]:
        if isinstance(ref, ast.TableName):
            return self._table_name(ref)
        if isinstance(ref, ast.DerivedTable):
            schema, rows = self.select(ref.select)
            return schema.with_qualifier(ref.alias), rows
        assert isinstance(ref, ast.JoinRef)
        left_schema, left_rows = self.table_ref(ref.left)
        right_schema, right_rows = self.table_ref(ref.right)
        combined = left_schema.concat(right_schema)
        condition = (
            ExpressionCompiler(combined).compile(ref.condition)
            if ref.condition is not None
            else None
        )
        output: List[Tuple] = []
        null_right = (None,) * len(right_schema)
        for left_row in left_rows:
            matched = False
            for right_row in right_rows:
                row = left_row + right_row
                if condition is None or evaluate(condition, self.ctx, row) is True:
                    matched = True
                    output.append(row)
            if ref.kind == "LEFT" and not matched:
                output.append(left_row + null_right)
        return combined, output

    def _table_name(self, ref: ast.TableName) -> Tuple[Schema, List[Tuple]]:
        name = ref.object_name
        view = self.database.catalog.maybe_view(name)
        if view is not None and not view.materialized:
            schema, rows = self.select(view.select)
            return schema.with_qualifier(ref.binding_name), rows
        if view is not None:  # materialized: read backing storage
            storage = self.database.storage_table(name)
            schema = view.schema.with_qualifier(ref.binding_name)
            return schema, [row for _, row in sorted(storage.rows.items())]
        table = self.database.catalog.get_table(name)
        storage = self.database.storage_table(name)
        schema = table.schema.with_qualifier(ref.binding_name)
        return schema, [row for _, row in sorted(storage.rows.items())]

    # -- SELECT ------------------------------------------------------------------

    def select(self, select: ast.Select) -> Tuple[Schema, List[Tuple]]:
        if select.from_clause is None:
            compiler = ExpressionCompiler(Schema(()))
            row = tuple(
                evaluate(compiler.compile(item.expression), self.ctx)
                for item in select.items
            )
            schema = Schema(
                Column(self._name_of(item, position), FLOAT)
                for position, item in enumerate(select.items)
            )
            return schema, [row]

        schema, rows = self.table_ref(select.from_clause)

        if select.where is not None:
            predicate = ExpressionCompiler(schema).compile(select.where)
            rows = [row for row in rows if evaluate(predicate, self.ctx, row) is True]

        items = self._expand_stars(select.items, schema)

        has_aggregates = any(self._contains_aggregate(item.expression) for item in items)
        if select.having is not None:
            has_aggregates = has_aggregates or self._contains_aggregate(select.having)

        if select.group_by or has_aggregates:
            schema, rows, items, order_exprs = self._aggregate(
                select, schema, rows, items
            )
        else:
            order_exprs = None

        # ORDER BY (may reference select aliases).
        if select.order_by:
            alias_map = {
                item.alias.lower(): item.expression for item in items if item.alias
            }
            compiler = ExpressionCompiler(schema)
            keyed = []
            for entry in select.order_by:
                expression = entry.expression
                if (
                    isinstance(expression, ast.ColumnRef)
                    and expression.qualifier is None
                    and expression.name.lower() in alias_map
                ):
                    expression = alias_map[expression.name.lower()]
                if order_exprs is not None:
                    expression = order_exprs.get(expression, expression)
                keyed.append((compiler.compile(expression), entry.descending))
            # NULL is the lowest value: first ascending, last descending.
            for maker, descending in reversed(keyed):
                def sort_key(row, maker=maker):
                    value = evaluate(maker, self.ctx, row)
                    if value is None:
                        return (0, 0)
                    return (1, value)

                rows.sort(key=sort_key, reverse=descending)

        # Projection.
        compiler = ExpressionCompiler(schema)
        makers = []
        for item in items:
            expression = item.expression
            if order_exprs is not None:
                expression = order_exprs.get(expression, expression)
            makers.append(compiler.compile(expression))
        projected = [
            tuple(evaluate(maker, self.ctx, row) for maker in makers) for row in rows
        ]
        out_schema = Schema(
            Column(self._name_of(item, position), FLOAT)
            for position, item in enumerate(items)
        )

        if select.distinct:
            seen = set()
            unique = []
            for row in projected:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            projected = unique

        if select.top is not None:
            limit_maker = ExpressionCompiler(Schema(())).compile(select.top)
            limit = evaluate(limit_maker, self.ctx)
            projected = projected[: int(limit)]

        return out_schema, projected

    # -- aggregation ---------------------------------------------------------------

    def _aggregate(self, select, schema, rows, items):
        """Group rows; returns (new_schema, group_rows, items, rewrite_map).

        The new schema holds the group-by expressions followed by every
        aggregate; ``rewrite_map`` maps original expressions to column
        references into it.
        """
        compiler = ExpressionCompiler(schema)
        group_makers = [compiler.compile(expr) for expr in select.group_by]

        aggregates: List[ast.FuncCall] = []
        scan_targets = [item.expression for item in items]
        if select.having is not None:
            scan_targets.append(select.having)
        scan_targets.extend(entry.expression for entry in select.order_by)
        for expression in scan_targets:
            for node in ast.walk_expression(expression):
                if isinstance(node, ast.FuncCall) and node.is_aggregate and node not in aggregates:
                    aggregates.append(node)

        groups: Dict[Tuple, List[Tuple]] = {}
        order: List[Tuple] = []
        for row in rows:
            key = tuple(evaluate(maker, self.ctx, row) for maker in group_makers)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        if not groups and not select.group_by:
            groups[()] = []
            order.append(())

        def compute(call: ast.FuncCall, members: List[Tuple]) -> Any:
            if call.args and not isinstance(call.args[0], ast.Star):
                arg = compiler.compile(call.args[0])
                values = [evaluate(arg, self.ctx, row) for row in members]
                values = [value for value in values if value is not None]
                if call.distinct:
                    deduped = []
                    for value in values:
                        if value not in deduped:
                            deduped.append(value)
                    values = deduped
            else:
                values = members  # COUNT(*)
            name = call.name
            if name == "COUNT":
                return len(values)
            if not values:
                return None
            if name == "SUM":
                total = values[0]
                for value in values[1:]:
                    total += value
                return total
            if name == "AVG":
                total = values[0]
                for value in values[1:]:
                    total += value
                return total / len(values)
            if name == "MIN":
                return min(values)
            if name == "MAX":
                return max(values)
            raise ExecutionError(f"unknown aggregate {name}")

        columns = []
        rewrite: Dict[ast.Expression, ast.ColumnRef] = {}
        for position, expr in enumerate(select.group_by):
            if isinstance(expr, ast.ColumnRef):
                columns.append(
                    Column(expr.name, FLOAT, qualifier=expr.qualifier)
                )
                rewrite[expr] = expr
            else:
                columns.append(Column(f"_g{position}", FLOAT))
                rewrite[expr] = ast.ColumnRef(f"_g{position}")
        for position, call in enumerate(aggregates):
            columns.append(Column(f"_ag{position}", FLOAT))
            rewrite[call] = ast.ColumnRef(f"_ag{position}")

        group_schema = Schema(columns)
        group_rows = []
        for key in order:
            members = groups[key]
            group_rows.append(
                key + tuple(compute(call, members) for call in aggregates)
            )

        from repro.optimizer.binder import substitute

        if select.having is not None:
            having = substitute(select.having, rewrite)
            predicate = ExpressionCompiler(group_schema).compile(having)
            group_rows = [row for row in group_rows if evaluate(predicate, self.ctx, row) is True]

        new_items = [
            ast.SelectItem(substitute(item.expression, rewrite), item.alias, item.target_parameter)
            for item in items
        ]
        order_rewrites = {
            entry.expression: substitute(entry.expression, rewrite)
            for entry in select.order_by
        }
        return group_schema, group_rows, new_items, order_rewrites

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _contains_aggregate(expression: ast.Expression) -> bool:
        return any(
            isinstance(node, ast.FuncCall) and node.is_aggregate
            for node in ast.walk_expression(expression)
        )

    @staticmethod
    def _expand_stars(items, schema: Schema):
        expanded = []
        for item in items:
            if isinstance(item.expression, ast.Star):
                for column in schema:
                    if (
                        item.expression.qualifier is None
                        or (column.qualifier or "").lower()
                        == item.expression.qualifier.lower()
                    ):
                        expanded.append(
                            ast.SelectItem(
                                ast.ColumnRef(column.name, qualifier=column.qualifier)
                            )
                        )
                continue
            expanded.append(item)
        return expanded

    @staticmethod
    def _name_of(item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expression, ast.ColumnRef):
            return item.expression.name
        return f"col{position + 1}"
