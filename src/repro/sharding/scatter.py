"""Scatter-gather decomposition: per-shard rewrite and result re-merge.

A scan over a partitioned table decomposes into per-shard scans whose
results union back together (UNION ALL semantics). Two rewrites make the
per-shard statements cheap and the merge exact:

* the shard's slice conjunct (``key BETWEEN lo AND hi``) is ANDed into
  each per-shard WHERE. The query's own predicate rarely *implies* the
  slice, so without this conjunct the optimizer on each shard would have
  to treat its slice view as conditional and plan remote fallbacks; with
  it, predicate implication holds unconditionally and the scan runs
  local — which needs the bounds to reach the shard's optimizer as
  constants, so the statement is marked :data:`~repro.sql.AS_WRITTEN`
  and no layer below lifts them to parameters (they are the same on
  every call; there is nothing to share). It also keeps the merge exact
  during rebalancing: the conjunct
  describes the slice by *value*, so a shard (or the backend, after a
  failover) returns exactly those rows no matter where the router
  believed the slice lived.
* ORDER BY columns missing from the projection are appended to the
  select list, so the gather side can re-sort the concatenation; TOP is
  kept per shard (each shard's local top-k is a superset of its members
  of the global top-k) and re-applied after the merge, and the appended
  columns are stripped before returning rows to the application.

The merge sorts with the same stable multi-pass the engine's Sort
operator uses, so sharded and unsharded executions agree even on tied
keys as long as shard order matches input order — and the TPC-W search
procedures all tie-break on the unique item title anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sharding.policy import TablePartition
from repro.sharding.ring import slice_predicate
from repro.sql import AS_WRITTEN, ast
from repro.sql.formatter import format_statement


@dataclass(frozen=True)
class ScatterQuery:
    """A scan decomposed for scatter-gather execution."""

    select: ast.Select  # projection already extended with sort columns
    partition: TablePartition
    key_qualifier: Optional[str]  # alias of the partitioned table, if any
    sort_keys: Tuple[Tuple[int, bool], ...]  # (column position, descending)
    top: Optional[int]
    width: int  # the application-visible projection width

    def shard_sql(self, low: int, high: int) -> str:
        """The per-shard statement for one slice ``[low, high]``."""
        conjunct = slice_predicate(
            self.partition.key_column, low, high, self.key_qualifier
        )
        where = (
            conjunct
            if self.select.where is None
            else ast.BinaryOp(op="AND", left=self.select.where, right=conjunct)
        )
        return AS_WRITTEN + format_statement(replace(self.select, where=where))

    def merge(self, shard_rows: Sequence[Sequence[Tuple]]) -> List[Tuple]:
        """Re-merge per-shard row sets: sort, TOP, strip appended columns."""
        rows: List[Tuple] = [tuple(row) for rows in shard_rows for row in rows]
        # Stable multi-pass sort, least-significant key first — the same
        # strategy as the engine's Sort, so ties keep concatenation order.
        for position, descending in reversed(self.sort_keys):
            rows.sort(key=lambda row: _orderable(row[position]), reverse=descending)
        if self.top is not None:
            rows = rows[: self.top]
        if self.width < len(self.select.items):
            rows = [row[: self.width] for row in rows]
        return rows


def _orderable(value):
    """Sort key tolerating NULLs (NULLs first ascending, as the engine sorts)."""
    return (value is not None, value)


def _table_names(ref: Optional[ast.TableRef]) -> Optional[List[ast.TableName]]:
    """Flatten a FROM clause to TableNames; None when not flattenable."""
    if ref is None:
        return []
    if isinstance(ref, ast.TableName):
        return [ref]
    if isinstance(ref, ast.JoinRef):
        if ref.kind.upper() not in ("INNER", "CROSS"):
            return None
        left = _table_names(ref.left)
        right = _table_names(ref.right)
        if left is None or right is None:
            return None
        return left + right
    return None  # derived tables are not scatter-decomposable


def _has_subquery(select: ast.Select) -> bool:
    for expression in ast.walk_statement_expressions(select):
        if isinstance(
            expression, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)
        ):
            return True
    return False


def _has_aggregate(select: ast.Select) -> bool:
    """Bare aggregates (COUNT(*) with no GROUP BY) must not scatter:
    concatenating per-shard aggregates is not the global aggregate."""
    for expression in ast.walk_statement_expressions(select):
        if (
            isinstance(expression, ast.FuncCall)
            and expression.name.upper() in ast.AGGREGATE_FUNCTIONS
        ):
            return True
    return False


def _match_item(
    items: Sequence[ast.SelectItem], expression: ast.Expression
) -> Optional[int]:
    """Position of a select item the ORDER BY expression refers to."""
    if not isinstance(expression, ast.ColumnRef):
        return None
    for position, item in enumerate(items):
        if item.alias and item.alias.lower() == expression.name.lower():
            return position
        if isinstance(item.expression, ast.ColumnRef):
            column = item.expression
            if column.name.lower() != expression.name.lower():
                continue
            if (
                expression.qualifier is None
                or column.qualifier is None
                or expression.qualifier.lower() == column.qualifier.lower()
            ):
                return position
    return None


def decompose(
    select: ast.Statement, partitions: Dict[str, TablePartition]
) -> Optional[ScatterQuery]:
    """Decompose a SELECT for scatter-gather, or None when not possible.

    Decomposable means: a select-project-join over exactly one
    partitioned table (plus any broadcast/replicated tables), no
    aggregation or DISTINCT, no subqueries, an optional literal TOP, and
    an ORDER BY of plain column references. Anything else routes to the
    backend instead — correctness never depends on decomposing.
    """
    if not isinstance(select, ast.Select):
        return None
    if select.group_by or select.having is not None or select.distinct:
        return None
    if select.freshness is not None:
        return None
    tables = _table_names(select.from_clause)
    if not tables:
        return None
    partitioned = [
        table for table in tables if table.object_name.lower() in partitions
    ]
    if len(partitioned) != 1:
        return None
    if _has_subquery(select) or _has_aggregate(select):
        return None
    for item in select.items:
        if isinstance(item.expression, ast.Star) or item.target_parameter:
            return None
    top: Optional[int] = None
    if select.top is not None:
        if not isinstance(select.top, ast.Literal):
            return None
        top = int(select.top.value)

    items = list(select.items)
    width = len(items)
    sort_keys: List[Tuple[int, bool]] = []
    for order in select.order_by:
        position = _match_item(items, order.expression)
        if position is None:
            if not isinstance(order.expression, ast.ColumnRef):
                return None
            items.append(ast.SelectItem(expression=order.expression))
            position = len(items) - 1
        sort_keys.append((position, order.descending))

    partition = partitions[partitioned[0].object_name.lower()]
    return ScatterQuery(
        select=replace(select, items=tuple(items)),
        partition=partition,
        key_qualifier=partitioned[0].alias,
        sort_keys=tuple(sort_keys),
        top=top,
        width=width,
    )
