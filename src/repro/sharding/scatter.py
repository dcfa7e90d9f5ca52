"""Scatter-gather decomposition: per-shard rewrite and result re-merge.

A query over partitioned tables decomposes into per-shard queries whose
results union back together (UNION ALL semantics) when every result row
comes from one shard:

* a select-project-join over one partitioned table (plus any broadcast
  tables) qualifies;
* so does a grouped query whose partitioned tables are each equi-joined
  to the others on their partition keys, when its ``GROUP BY`` contains
  one of those keys. All partitions share one
  :class:`~repro.sharding.ring.RangePartitioner`, so equal keys live on
  one shard and no group spans two: per-shard aggregates and ``HAVING``
  are exact. TPC-W's ``item`` and ``order_line`` co-partition on the
  item id for exactly this — the best-seller query. A bare aggregate
  (``COUNT(*)``, no ``GROUP BY``), a ``GROUP BY`` without the key and
  ``DISTINCT`` do not qualify: their rows combine across shards. An
  ungrouped join of partitioned tables stays on the backend too; the
  shards would only ship it the same rows;
* a subquery qualifies when every table it names is broadcast (each
  shard holds those tables whole).

Two rewrites make the per-shard statements cheap and the merge exact:

* one slice conjunct per partitioned reference (``key BETWEEN lo AND
  hi``) is ANDed into each per-shard WHERE. The query's own predicate
  rarely *implies* the slice, so without the conjunct the optimizer on
  each shard would have to treat its slice view as conditional and plan
  remote fallbacks; with it, predicate implication holds unconditionally
  and the scan runs local — and since view matching does not chase join
  equalities, every sliced reference needs its own conjunct. That needs
  the bounds to reach the shard's optimizer as constants, so the
  statement is marked :data:`~repro.sql.AS_WRITTEN` and no layer below
  lifts them to parameters (they are the same on every call; there is
  nothing to share). The conjuncts also keep the merge exact during
  rebalancing: they describe the slice by *value*, so a shard (or the
  backend, after a failover) returns exactly those rows no matter where
  the router believed the slice lived.
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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.locks import named_tables
from repro.optimizer.predicates import split_conjuncts
from repro.sharding.policy import TablePartition
from repro.sharding.ring import slice_predicate
from repro.sql import AS_WRITTEN, ast
from repro.sql.formatter import format_statement


@dataclass(frozen=True)
class ScatterQuery:
    """A query decomposed for scatter-gather execution."""

    select: ast.Select  # projection already extended with sort columns
    keys: Tuple[ast.ColumnRef, ...]  # each partitioned reference's key
    sort_keys: Tuple[Tuple[int, bool], ...]  # (column position, descending)
    top: Optional[int]
    width: int  # the application-visible projection width

    def shard_sql(self, low: int, high: int) -> str:
        """The per-shard statement for one slice ``[low, high]``."""
        where = self.select.where
        for key in self.keys:
            conjunct = slice_predicate(key.name, low, high, key.qualifier)
            where = conjunct if where is None else ast.BinaryOp("AND", where, conjunct)
        return AS_WRITTEN + format_statement(self.select.replace(where=where))

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


def _join_conditions(ref: Optional[ast.TableRef]) -> List[ast.Expression]:
    """The ON conjuncts of a flattenable (inner/cross) FROM clause."""
    if not isinstance(ref, ast.JoinRef):
        return []
    own = split_conjuncts(ref.condition)
    return own + _join_conditions(ref.left) + _join_conditions(ref.right)


def _subqueries_broadcast(
    select: ast.Select, partitions: Dict[str, TablePartition]
) -> bool:
    """Does every subquery name only unpartitioned tables? (The router
    checks that each shard shadows them, which makes them broadcast.)"""
    for expression in ast.walk_statement_expressions(select):
        if isinstance(expression, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
            for table in named_tables(expression.subquery):
                if table.object_name.lower() in partitions:
                    return False
    return True


def _aggregates(select: ast.Select) -> bool:
    """Does the query block itself (not its subqueries) aggregate?"""
    expressions = [item.expression for item in select.items]
    expressions += [order.expression for order in select.order_by]
    return any(
        isinstance(node, ast.FuncCall) and node.is_aggregate
        for expression in expressions
        for node in ast.walk_expression(expression)
    )


def _key_reference(
    column: ast.Expression,
    references: Sequence[ast.TableName],
    partitions: Dict[str, TablePartition],
) -> Optional[int]:
    """The partitioned reference whose partition key ``column`` names."""
    if not isinstance(column, ast.ColumnRef):
        return None
    found = [
        position
        for position, reference in enumerate(references)
        if partitions[reference.object_name.lower()].key_column.lower() == column.name.lower()
        and (
            not column.qualifier
            or column.qualifier.lower()
            in (reference.binding_name.lower(), reference.object_name.lower())
        )
    ]
    return found[0] if len(found) == 1 else None


def _co_partitioned(
    select: ast.Select,
    references: Sequence[ast.TableName],
    partitions: Dict[str, TablePartition],
) -> bool:
    """Are all partitioned references equi-joined on their keys?"""
    component = list(range(len(references)))

    def root(position: int) -> int:
        while component[position] != position:
            position = component[position]
        return position

    for conjunct in split_conjuncts(select.where) + _join_conditions(select.from_clause):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        left = _key_reference(conjunct.left, references, partitions)
        right = _key_reference(conjunct.right, references, partitions)
        if left is not None and right is not None:
            component[root(left)] = root(right)
    return len({root(position) for position in component}) == 1


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

    Decomposable means: an inner join of partitioned tables co-partitioned
    on their keys (plus any broadcast tables), no DISTINCT, aggregation
    only under a GROUP BY that contains a partition key, subqueries over
    broadcast tables only, an optional literal TOP, and an ORDER BY of
    plain column references or select-item aliases. Anything else routes
    to the backend instead — correctness never depends on decomposing.
    """
    if not isinstance(select, ast.Select):
        return None
    if select.distinct or select.freshness is not None:
        return None
    tables = _table_names(select.from_clause)
    if not tables:
        return None
    partitioned = [
        table for table in tables if table.object_name.lower() in partitions
    ]
    grouped = bool(select.group_by) or select.having is not None or _aggregates(select)
    if not partitioned or (len(partitioned) > 1 and not grouped):
        return None
    if not _co_partitioned(select, partitioned, partitions):
        return None
    if grouped and not any(
        _key_reference(expression, partitioned, partitions) is not None
        for expression in select.group_by
    ):
        return None
    if not _subqueries_broadcast(select, partitions):
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

    several = len(partitioned) > 1
    keys = tuple(
        ast.ColumnRef(
            name=partitions[table.object_name.lower()].key_column,
            qualifier=table.alias or (table.object_name if several else None),
        )
        for table in partitioned
    )
    return ScatterQuery(
        select=select.replace(items=tuple(items)),
        keys=keys,
        sort_keys=tuple(sort_keys),
        top=top,
        width=width,
    )
