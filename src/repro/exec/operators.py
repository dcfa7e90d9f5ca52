"""Physical operators: one batch-at-a-time protocol.

Each operator exposes an output :class:`Schema` and
``execute_batches(ctx)``, a generator of *non-empty* lists of rows, at
most ``ctx.batch_rows`` per chunk at the source. That is the only way
operators compose: parents pull chunks from ``child.execute_batches``
and the server drains the root through :class:`BatchCursor`. Plans are
re-executable: ``execute_batches`` may be called many times with
different contexts (different parameter bindings), which is exactly what
dynamic plans need.

``FilterOp`` supports a *startup predicate* — the mechanism the paper uses
to implement ChoosePlan: the predicate references only parameters, is
evaluated once when the operator is opened, and when false the operator's
input is never opened (its branch of the plan costs nothing at run time).

Scan, filter, project, aggregate, hash join, index lookup join, sort/top,
distinct and union-all move whole chunks through compiled batch kernels
(see ``exec/expressions.py``), memoized per operator instance
(:meth:`PhysicalOperator._kernel`) — and since cached plans *are*
operator trees, the kernels live in the plan cache entry and die with it
on a schema bump. The index lookup join probes a whole left chunk at once
(hashed exact-key lookups, :meth:`SecondaryIndex.seek_many`) and filters
the chunk's candidates with the same kernels. Sources whose rows are
already materialised (index seek, index extreme, remote query) yield list
slices. Operators whose work is inherently a per-row loop (index range
scan, nested-loop and merge joins) keep that loop as a ``_rows`` generator
and hand it to :func:`_chunked`. Work counters count per input row
whichever shape an operator has (``rows_processed += len(chunk)``); an
operator that consumes a whole input chunk counts it whole.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.schema import Schema
from repro.errors import ExecutionError
from repro.exec.context import ExecutionContext
from repro.exec.expressions import Kernel, column_maker, evaluate, tuple_kernel
from repro.obs.tracing import NULL_SPAN

Row = Tuple
Batch = List[Row]


def _chunked(rows: Iterable[Row], size: int) -> Iterator[Batch]:
    """Group a row stream into non-empty chunks of at most ``size`` rows."""
    chunk: Batch = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _table_and_index(ctx: ExecutionContext, table_name: str, index_name: str):
    """Resolve a local storage table and one of its indexes."""
    table = ctx.database.storage_table(table_name)
    index = table.indexes.get(index_name)
    if index is None:
        raise ExecutionError(f"no index {index_name!r} on {table_name!r}")
    return table, index


class PhysicalOperator:
    """Base class for physical operators."""

    def __init__(self, schema: Schema, children: Sequence["PhysicalOperator"] = ()):
        self.schema = schema
        self.children: List[PhysicalOperator] = list(children)
        # Filled in by the optimizer for explain/costing purposes.
        self.estimated_rows: float = 0.0
        self.estimated_cost: float = 0.0

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        """Yield the operator's output as non-empty chunks of rows."""
        raise NotImplementedError

    def _kernel(self, name: str, ctx: ExecutionContext, builder: Callable[[], Any]) -> Any:
        """Fetch (or build once) a named batch kernel for this operator.

        Kernels are pure closures derived from the operator's compiled
        expressions, so memoizing them on the instance is safe across
        executions and threads (a lost race just rebuilds an identical
        closure). Hit/miss counts land on the context for the
        ``exec.compiled_cache_*`` metrics.
        """
        cache = self.__dict__.get("_batch_kernels")
        if cache is None:
            cache = self.__dict__.setdefault("_batch_kernels", {})
        kernel = cache.get(name)
        if kernel is None:
            kernel = builder()
            cache[name] = kernel
            ctx.compiled_cache_misses += 1
        else:
            ctx.compiled_cache_hits += 1
        return kernel

    @property
    def label(self) -> str:
        return type(self).__name__.replace("Op", "")

    def explain(self, indent: int = 0, costs: bool = False) -> str:
        """Render the plan subtree as indented text.

        With ``costs=True`` each line carries the optimizer's estimates
        (rows and abstract cost units), like a production EXPLAIN.
        """
        line = ("  " * indent) + self.describe()
        if costs and (self.estimated_rows or self.estimated_cost):
            line += f"  [rows={self.estimated_rows:.0f} cost={self.estimated_cost:.1f}]"
        lines = [line]
        for child in self.children:
            lines.append(child.explain(indent + 1, costs))
        return "\n".join(lines)

    def describe(self) -> str:
        return self.label

    def walk(self) -> Iterator["PhysicalOperator"]:
        """Yield this operator and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()


class ValuesOp(PhysicalOperator):
    """Emit fixed rows of row-independent kernels (VALUES / SELECT 1)."""

    def __init__(self, schema: Schema, row_makers: Sequence[Sequence[Kernel]]):
        super().__init__(schema)
        self.row_makers = [list(makers) for makers in row_makers]

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        rows = []
        for makers in self.row_makers:
            ctx.work.rows_processed += 1
            rows.append(tuple(evaluate(maker, ctx) for maker in makers))
        if rows:
            yield rows

    def describe(self) -> str:
        return f"Values({len(self.row_makers)} rows)"


class SeqScanOp(PhysicalOperator):
    """Full scan of a local table or materialized view's backing table."""

    def __init__(self, schema: Schema, table_name: str):
        super().__init__(schema)
        self.table_name = table_name

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        table = ctx.database.storage_table(self.table_name)
        size = ctx.batch_rows
        for chunk in table.scan_batches(size):
            ctx.work.rows_processed += len(chunk)
            yield chunk

    def describe(self) -> str:
        return f"SeqScan({self.table_name})"


class IndexSeekOp(PhysicalOperator):
    """Exact-match index seek on the leading columns of an index.

    It answers its key equalities by itself — the planner filters only
    the leaf's other conjuncts above it — so a NULL key part finds no row:
    SQL's ``= NULL`` is never true, though the index stores NULL keys."""

    def __init__(
        self,
        schema: Schema,
        table_name: str,
        index_name: str,
        key_makers: Sequence[Kernel],
    ):
        super().__init__(schema)
        self.table_name = table_name
        self.index_name = index_name
        self.key_makers = list(key_makers)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        table, index = _table_and_index(ctx, self.table_name, self.index_name)
        key = tuple(evaluate(maker, ctx) for maker in self.key_makers)
        rids = index.seek(key)  # checks every part against its column
        if None in key:
            rids = []
        ctx.work.index_seeks += 1
        size = ctx.batch_rows
        for start in range(0, len(rids), size):
            chunk = table.get_many(rids[start : start + size])
            ctx.work.rows_processed += len(chunk)
            yield chunk

    def describe(self) -> str:
        return f"IndexSeek({self.table_name}.{self.index_name})"


class IndexRangeScanOp(PhysicalOperator):
    """Ordered range scan over an index: [low, high] bounds on leading key."""

    def __init__(
        self,
        schema: Schema,
        table_name: str,
        index_name: str,
        low_makers: Optional[Sequence[Kernel]] = None,
        high_makers: Optional[Sequence[Kernel]] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ):
        super().__init__(schema)
        self.table_name = table_name
        self.index_name = index_name
        self.low_makers = list(low_makers) if low_makers else None
        self.high_makers = list(high_makers) if high_makers else None
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return _chunked(self._rows(ctx), ctx.batch_rows)

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        table, index = _table_and_index(ctx, self.table_name, self.index_name)
        low = tuple(evaluate(m, ctx) for m in self.low_makers) if self.low_makers else None
        high = tuple(evaluate(m, ctx) for m in self.high_makers) if self.high_makers else None
        rids = index.range_scan(low, high, self.low_inclusive, self.high_inclusive)
        ctx.work.index_seeks += 1
        for rid in rids:
            ctx.work.rows_processed += 1
            yield table.get(rid)

    def describe(self) -> str:
        return f"IndexRangeScan({self.table_name}.{self.index_name})"


class IndexExtremeOp(PhysicalOperator):
    """Answer ``SELECT MIN/MAX(col) FROM t`` from the index ends.

    Emits exactly one single-column row: the smallest or largest key of an
    index led by the column (NULL on an empty table), replacing a full
    scan-and-aggregate.
    """

    def __init__(self, schema: Schema, table_name: str, index_name: str, which: str):
        super().__init__(schema)
        self.table_name = table_name
        self.index_name = index_name
        if which not in ("MIN", "MAX"):
            raise ExecutionError(f"IndexExtreme supports MIN/MAX, not {which!r}")
        self.which = which

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        _, index = _table_and_index(ctx, self.table_name, self.index_name)
        ctx.work.index_seeks += 1
        value = None
        if self.which == "MAX":
            key = index.tree.max_key()
            if key is not None and len(key[0]) > 1:
                value = key[0][1]
        else:
            # NULL keys sort first; SQL MIN ignores NULLs, so skip them.
            for key, _ in index.tree.scan():
                if len(key[0]) > 1:
                    value = key[0][1]
                    break
        ctx.work.rows_processed += 1
        yield [(value,)]

    def describe(self) -> str:
        return f"IndexExtreme({self.which} via {self.table_name}.{self.index_name})"


class FilterOp(PhysicalOperator):
    """Row filter, optionally guarded by a startup predicate.

    The startup predicate is evaluated once per execution against an empty
    row; when it does not evaluate to True the input is never opened. This
    is the UnionAll/startup-predicate encoding of ChoosePlan from the
    paper's Figure 2(b).
    """

    def __init__(
        self,
        child: PhysicalOperator,
        predicate: Optional[Kernel] = None,
        startup_predicate: Optional[Kernel] = None,
        description: str = "",
        startup_guard: Optional[Any] = None,
    ):
        super().__init__(child.schema, [child])
        self.predicate = predicate
        self.startup_predicate = startup_predicate
        self.description = description
        # Source AST of the startup predicate. Compiled startup predicates
        # are opaque kernels; the plan verifier needs the expression to
        # prove ChoosePlan guards mutually exclusive and exhaustive.
        self.startup_guard = startup_guard

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        if self.startup_predicate is not None:
            if evaluate(self.startup_predicate, ctx) is not True:
                return
        child = self.children[0]
        predicate = self.predicate
        if predicate is None:
            yield from child.execute_batches(ctx)
            return
        for chunk in child.execute_batches(ctx):
            ctx.work.rows_processed += len(chunk)
            selection = predicate(chunk, ctx)
            passed = [row for row, keep in zip(chunk, selection) if keep is True]
            if passed:
                yield passed

    def describe(self) -> str:
        parts = ["Filter"]
        if self.startup_predicate is not None:
            parts.append("[startup]")
        if self.description:
            parts.append(f"({self.description})")
        return "".join(parts)


class ProjectOp(PhysicalOperator):
    """Compute output expressions; also performs column pruning."""

    def __init__(self, child: PhysicalOperator, schema: Schema, makers: Sequence[Kernel]):
        super().__init__(schema, [child])
        self.makers = list(makers)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        kernel = self._kernel("project", ctx, lambda: tuple_kernel(self.makers))
        for chunk in self.children[0].execute_batches(ctx):
            ctx.work.rows_processed += len(chunk)
            yield kernel(chunk, ctx)

    def describe(self) -> str:
        return f"Project({', '.join(self.schema.names)})"


class NestedLoopJoinOp(PhysicalOperator):
    """Nested-loop join (INNER, LEFT or CROSS) with an optional predicate."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        predicate: Optional[Kernel] = None,
        kind: str = "INNER",
    ):
        super().__init__(left.schema.concat(right.schema), [left, right])
        self.predicate = predicate
        self.kind = kind

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return _chunked(self._rows(ctx), ctx.batch_rows)

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        left, right = self.children
        right_rows = list(chain.from_iterable(right.execute_batches(ctx)))
        null_right = (None,) * len(right.schema)
        for left_row in chain.from_iterable(left.execute_batches(ctx)):
            ctx.work.rows_processed += len(right_rows)
            joined = _joined(left_row, right_rows, self.predicate, ctx)
            yield from joined
            if self.kind == "LEFT" and not joined:
                yield left_row + null_right

    def describe(self) -> str:
        return f"NestedLoopJoin({self.kind})"


class HashJoinOp(PhysicalOperator):
    """Equi-join via hashing (INNER or LEFT outer).

    ``left_keys``/``right_keys`` are key kernels over the respective input
    chunks; a residual predicate filters each left row's combined rows.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Sequence[Kernel],
        right_keys: Sequence[Kernel],
        residual: Optional[Kernel] = None,
        kind: str = "INNER",
    ):
        super().__init__(left.schema.concat(right.schema), [left, right])
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.kind = kind

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        left, right = self.children
        right_kernel = self._kernel("right-keys", ctx, lambda: tuple_kernel(self.right_keys))
        left_kernel = self._kernel("left-keys", ctx, lambda: tuple_kernel(self.left_keys))
        # Build on the right input (typically the smaller by optimizer choice).
        build: dict = {}
        for chunk in right.execute_batches(ctx):
            ctx.work.rows_processed += len(chunk)
            for right_row, key in zip(chunk, right_kernel(chunk, ctx)):
                if any(part is None for part in key):
                    continue  # NULL never equi-joins
                build.setdefault(key, []).append(right_row)
        null_right = (None,) * len(right.schema)
        size = ctx.batch_rows
        out: Batch = []
        for chunk in left.execute_batches(ctx):
            ctx.work.rows_processed += len(chunk)
            for left_row, key in zip(chunk, left_kernel(chunk, ctx)):
                matches = build.get(key, ()) if not any(part is None for part in key) else ()
                joined = _joined(left_row, matches, self.residual, ctx)
                if self.kind == "LEFT" and not joined:
                    joined = [left_row + null_right]
                out.extend(joined)
                while len(out) >= size:
                    yield out[:size]
                    out = out[size:]
        if out:
            yield out

    def describe(self) -> str:
        return f"HashJoin({self.kind})"


class IndexLookupJoinOp(PhysicalOperator):
    """Index nested-loop join: probe the right table's index per left row.

    The workhorse for point-lookup joins (``customer ⋈ address`` by
    primary key): instead of scanning/hashing the whole right table, each
    left row probes a right-side index. ``key_makers`` extract the probe
    key from the left row; ``right_predicate`` applies the right leaf's
    own filters (compiled against the right storage's full schema);
    ``right_positions`` projects the right row down to the leaf schema;
    ``residual`` filters the combined row.

    It runs a left chunk at a time: one key kernel for the chunk's probes,
    one :meth:`SecondaryIndex.seek_many` for the full-key ones (a prefix
    probe scans the tree), then the right predicate and the residual as
    batch kernels over all of the chunk's candidates. Output keeps left
    order (a left row's matches in index order) in chunks of at most
    ``ctx.batch_rows``. Each left row counts one index seek and each
    fetched right row one processed row.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right_schema: Schema,
        table_name: str,
        index_name: str,
        key_makers: Sequence[Kernel],
        right_positions: Sequence[int],
        right_predicate: Optional[Kernel] = None,
        residual: Optional[Kernel] = None,
        kind: str = "INNER",
    ):
        super().__init__(left.schema.concat(right_schema), [left])
        self.right_schema = right_schema
        self.table_name = table_name
        self.index_name = index_name
        self.key_makers = list(key_makers)
        self.right_positions = list(right_positions)
        self.right_predicate = right_predicate
        self.residual = residual
        self.kind = kind

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        table, index = _table_and_index(ctx, self.table_name, self.index_name)
        probe_keys = self._kernel("probe-keys", ctx, lambda: tuple_kernel(self.key_makers))
        project = self._kernel(
            "right-project",
            ctx,
            lambda: tuple_kernel([column_maker(position) for position in self.right_positions]),
        )
        right_filter, residual = self.right_predicate, self.residual
        partial = len(self.key_makers) < len(index.column_names)
        null_right = (None,) * len(self.right_schema)
        size = ctx.batch_rows
        for chunk in self.children[0].execute_batches(ctx):
            keys = probe_keys(chunk, ctx)
            ctx.work.index_seeks += len(chunk)
            if partial:
                matches = [() if None in key else index.seek(key) for key in keys]
            else:
                matches = index.seek_many(keys)
            owners = [i for i, rids in enumerate(matches) for _ in rids]
            candidates = table.get_many(list(chain.from_iterable(matches)))
            ctx.work.rows_processed += len(candidates)
            if right_filter is not None and candidates:
                owners, candidates = _selected(right_filter(candidates, ctx), owners, candidates)
            combined = [
                chunk[owner] + right for owner, right in zip(owners, project(candidates, ctx))
            ]
            if residual is not None and combined:
                owners, combined = _selected(residual(combined, ctx), owners, combined)
            if self.kind == "LEFT" and len(set(owners)) < len(chunk):
                combined = _outer(chunk, owners, combined, null_right)
            for start in range(0, len(combined), size):
                yield combined[start : start + size]

    def describe(self) -> str:
        return f"IndexLookupJoin({self.table_name}.{self.index_name})"


def _joined(left_row: Row, right_rows: Sequence[Row], predicate: Optional[Kernel], ctx) -> Batch:
    """``left_row`` joined to each of ``right_rows`` that ``predicate``
    accepts: one kernel call over all of them."""
    combined = [left_row + right_row for right_row in right_rows]
    if predicate is None or not combined:
        return combined
    return [row for row, keep in zip(combined, predicate(combined, ctx)) if keep is True]


def _selected(selection: List[Any], owners: List[int], rows: Batch) -> Tuple[List[int], Batch]:
    """Keep the ``(owner, row)`` pairs a predicate's selection vector accepts."""
    kept = [i for i, keep in enumerate(selection) if keep is True]
    return [owners[i] for i in kept], [rows[i] for i in kept]


def _outer(chunk: Batch, owners: List[int], combined: Batch, null_right: Row) -> Batch:
    """Left-outer output: ``combined`` (grouped by ascending owner) with a
    NULL-extended row in place for each left row that kept no match."""
    rows: Batch = []
    position = 0
    for owner, row in zip(owners, combined):
        while position < owner:
            rows.append(chunk[position] + null_right)
            position += 1
        rows.append(row)
        position = owner + 1
    rows.extend(left_row + null_right for left_row in chunk[position:])
    return rows


class MergeJoinOp(PhysicalOperator):
    """Sort-merge equi-join (INNER).

    Materializes and sorts both inputs on their join keys, then merges
    with duplicate-group handling. Chosen by the optimizer when both
    inputs are large enough that sorting beats hashing's memory footprint
    (in this in-memory engine the cost difference is modest; the operator
    exists for completeness and for ORDER-BY-covering plans).
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Sequence[Kernel],
        right_keys: Sequence[Kernel],
        residual: Optional[Kernel] = None,
    ):
        super().__init__(left.schema.concat(right.schema), [left, right])
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual

    @staticmethod
    def _sortable(key: Tuple) -> Tuple:
        return tuple(
            (0, part) if isinstance(part, (int, float)) else (1, str(part))
            for part in key
        )

    def _keyed(self, op: PhysicalOperator, kernel: Kernel, ctx) -> List[Tuple]:
        keyed = []
        for chunk in op.execute_batches(ctx):
            ctx.work.rows_processed += len(chunk)
            for row, key in zip(chunk, kernel(chunk, ctx)):
                if any(part is None for part in key):
                    continue  # NULL never equi-joins
                keyed.append((self._sortable(key), row))
        keyed.sort(key=lambda pair: pair[0])
        return keyed

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        return _chunked(self._rows(ctx), ctx.batch_rows)

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        left_kernel = self._kernel("left-keys", ctx, lambda: tuple_kernel(self.left_keys))
        right_kernel = self._kernel("right-keys", ctx, lambda: tuple_kernel(self.right_keys))
        left = self._keyed(self.children[0], left_kernel, ctx)
        right = self._keyed(self.children[1], right_kernel, ctx)
        i = j = 0
        while i < len(left) and j < len(right):
            left_key = left[i][0]
            right_key = right[j][0]
            if left_key < right_key:
                i += 1
                continue
            if left_key > right_key:
                j += 1
                continue
            # Duplicate groups on both sides.
            i_end = i
            while i_end < len(left) and left[i_end][0] == left_key:
                i_end += 1
            j_end = j
            while j_end < len(right) and right[j_end][0] == right_key:
                j_end += 1
            group = [right_row for _, right_row in right[j:j_end]]
            for _, left_row in left[i:i_end]:
                ctx.work.rows_processed += len(group)
                yield from _joined(left_row, group, self.residual, ctx)
            i, j = i_end, j_end

    def describe(self) -> str:
        return "MergeJoin(INNER)"


class AggregateSpec:
    """One aggregate to compute: function, argument extractor, DISTINCT."""

    def __init__(self, function: str, argument: Optional[Kernel], distinct: bool = False):
        self.function = function
        self.argument = argument  # None => COUNT(*)
        self.distinct = distinct


class _AggState:
    """Accumulator for one aggregate within one group."""

    __slots__ = ("spec", "count", "total", "best", "seen")

    def __init__(self, spec: AggregateSpec):
        self.spec = spec
        self.count = 0
        self.total: Any = None
        self.best: Any = None
        self.seen = set() if spec.distinct else None

    def add_value(self, value: Any) -> None:
        """Accumulate one pre-extracted argument value.

        The operator extracts the argument column for a whole chunk in
        one kernel call, then feeds values here in row order — so SUM/AVG
        accumulate in input order (and float associativity), like the
        scalar oracle in ``exec/reference.py``.
        """
        spec = self.spec
        if spec.argument is None:  # COUNT(*) counts rows, not values
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if spec.function in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif spec.function == "MIN":
            if self.best is None or value < self.best:
                self.best = value
        elif spec.function == "MAX":
            if self.best is None or value > self.best:
                self.best = value

    def result(self) -> Any:
        function = self.spec.function
        if function == "COUNT":
            return self.count
        if function == "SUM":
            return self.total
        if function == "AVG":
            if self.count == 0:
                return None
            return self.total / self.count
        if function in ("MIN", "MAX"):
            return self.best
        raise ExecutionError(f"unknown aggregate {function!r}")


class AggregateOp(PhysicalOperator):
    """Hash aggregation with optional grouping.

    Output rows are ``group_values + aggregate_results`` in declaration
    order. With no GROUP BY, exactly one row is produced even on empty
    input (COUNT = 0, other aggregates NULL), per SQL semantics.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        schema: Schema,
        group_makers: Sequence[Kernel],
        aggregates: Sequence[AggregateSpec],
    ):
        super().__init__(schema, [child])
        self.group_makers = list(group_makers)
        self.aggregates = list(aggregates)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        groups: dict = {}
        order: List[Tuple] = []
        key_kernel = self._kernel(
            "group-keys", ctx, lambda: tuple_kernel(self.group_makers)
        )
        for chunk in self.children[0].execute_batches(ctx):
            ctx.work.rows_processed += len(chunk)
            keys = key_kernel(chunk, ctx)
            # Columnar argument extraction: one kernel call per aggregate
            # per chunk.
            columns = [
                None if spec.argument is None else spec.argument(chunk, ctx)
                for spec in self.aggregates
            ]
            for i, key in enumerate(keys):
                states = groups.get(key)
                if states is None:
                    states = [_AggState(spec) for spec in self.aggregates]
                    groups[key] = states
                    order.append(key)
                for state, column in zip(states, columns):
                    state.add_value(None if column is None else column[i])
        if not groups and not self.group_makers:
            yield [tuple(_AggState(spec).result() for spec in self.aggregates)]
            return
        yield from _chunked(
            (key + tuple(state.result() for state in groups[key]) for key in order),
            ctx.batch_rows,
        )

    def describe(self) -> str:
        names = [spec.function for spec in self.aggregates]
        return f"Aggregate(groups={len(self.group_makers)}, aggs={names})"


class SortOp(PhysicalOperator):
    """Sort by multiple keys with per-key direction; NULLs sort first ASC."""

    def __init__(
        self,
        child: PhysicalOperator,
        sort_makers: Sequence[Tuple[Kernel, bool]],  # (extractor, descending)
    ):
        super().__init__(child.schema, [child])
        self.sort_makers = list(sort_makers)

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        rows: Batch = []
        for chunk in self.children[0].execute_batches(ctx):
            rows.extend(chunk)
        ctx.work.rows_processed += len(rows)
        kernels = [maker for maker, _ in self.sort_makers]
        # Stable multi-pass sort: apply keys from least to most significant.
        # NULL is the lowest value (T-SQL): first ascending, last
        # descending — the same (0-tagged) key works for both directions.
        # Each pass extracts its whole key column with one kernel call,
        # then reorders by index (``sorted`` with a key is stable).
        for (maker, descending), kernel in zip(
            reversed(self.sort_makers), reversed(kernels)
        ):
            values = kernel(rows, ctx)
            keyed = [(0, 0) if value is None else (1, value) for value in values]
            positions = sorted(
                range(len(rows)), key=keyed.__getitem__, reverse=descending
            )
            rows = [rows[i] for i in positions]
        size = ctx.batch_rows
        for start in range(0, len(rows), size):
            yield rows[start : start + size]

    def describe(self) -> str:
        return f"Sort({len(self.sort_makers)} keys)"


class TopOp(PhysicalOperator):
    """Emit at most N rows; N may be a parameter expression."""

    def __init__(self, child: PhysicalOperator, count_maker: Kernel):
        super().__init__(child.schema, [child])
        self.count_maker = count_maker

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        limit = evaluate(self.count_maker, ctx)
        if limit is None:
            raise ExecutionError("TOP count evaluated to NULL")
        remaining = int(limit)
        if remaining <= 0:
            return
        for chunk in self.children[0].execute_batches(ctx):
            if len(chunk) >= remaining:
                yield chunk[:remaining]
                return
            remaining -= len(chunk)
            yield chunk

    def describe(self) -> str:
        return "Top"


class DistinctOp(PhysicalOperator):
    """Remove duplicate rows (hash-based, NULL-safe)."""

    def __init__(self, child: PhysicalOperator):
        super().__init__(child.schema, [child])

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        seen: set = set()
        for chunk in self.children[0].execute_batches(ctx):
            ctx.work.rows_processed += len(chunk)
            fresh: Batch = []
            for row in chunk:
                if row not in seen:
                    seen.add(row)
                    fresh.append(row)
            if fresh:
                yield fresh

    def describe(self) -> str:
        return "Distinct"


class UnionAllOp(PhysicalOperator):
    """Concatenate child outputs.

    Combined with startup-predicate FilterOp children, this implements the
    paper's ChoosePlan: exactly one branch produces rows at run time.
    """

    def __init__(self, children: Sequence[PhysicalOperator], choose_plan: bool = False):
        if not children:
            raise ExecutionError("UnionAll requires at least one input")
        super().__init__(children[0].schema, children)
        self.choose_plan = choose_plan

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        for child in self.children:
            yield from child.execute_batches(ctx)

    def describe(self) -> str:
        return "ChoosePlan(UnionAll)" if self.choose_plan else "UnionAll"


class RemoteQueryOp(PhysicalOperator):
    """Execute a textual SQL query on a linked server (DataTransfer).

    This is the runtime face of the optimizer's DataTransfer operator: the
    remote subexpression has been rendered back to SQL text (plans cannot
    be shipped), the linked server re-parses and re-optimizes it, and the
    result rows flow back. Transferred volume is charged to the context's
    work counters so the cost model and the cluster simulator see it.

    The text is shipped only once: the first execution prepares it on
    the link (paper §4.3's parameterized remote query) and every
    execution after that goes by handle with just the parameter values.
    The target re-prepares transparently when its schema version bumps,
    so plans stay valid across remote DDL.
    """

    def __init__(self, schema: Schema, server_name: str, sql_text: str):
        super().__init__(schema)
        self.server_name = server_name
        self.sql_text = sql_text

    def execute_batches(self, ctx: ExecutionContext) -> Iterator[Batch]:
        if ctx.linked_servers is None:
            raise ExecutionError("no linked servers registered in context")
        server = ctx.linked_servers.get(self.server_name)
        if ctx.tracer is not None:
            span = ctx.tracer.child_span("remote.query", server=self.server_name)
        else:
            span = NULL_SPAN
        with span:
            rows = server.prepare(self.sql_text).execute_rows(ctx.params)
            ctx.work.prepared_executions += 1
        ctx.work.remote_queries += 1
        width = self.schema.row_width
        size = ctx.batch_rows
        for start in range(0, len(rows), size):
            chunk = [tuple(row) for row in rows[start : start + size]]
            ctx.work.rows_processed += len(chunk)
            ctx.work.bytes_transferred += width * len(chunk)
            yield chunk

    def describe(self) -> str:
        text = self.sql_text if len(self.sql_text) <= 60 else self.sql_text[:57] + "..."
        return f"RemoteQuery[{self.server_name}]({text})"


class BatchCursor:
    """Pull-based handle over a plan's batch stream.

    ``next_batch()`` returns the next non-empty chunk of rows, or ``None``
    once the plan is exhausted. This is the driver-facing face of the
    batch protocol (the server's execution loop uses it); operators
    themselves compose through ``execute_batches`` generators.
    """

    def __init__(self, root: PhysicalOperator, ctx: ExecutionContext):
        self._batches = root.execute_batches(ctx)

    def next_batch(self) -> Optional[Batch]:
        return next(self._batches, None)

    def close(self) -> None:
        self._batches.close()
