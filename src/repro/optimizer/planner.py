"""The MTCache query planner.

Implements the paper's optimizer architecture on top of the Volcano-style
executor:

* **DataLocation as a physical property.** Table references resolve to
  Local (base tables with local storage, cached/materialized views) or
  Remote (shadow tables backed by the backend server, four-part linked
  server names). The root of every query requires Local.
* **DataTransfer as an enforcer.** A Remote subexpression becomes Local by
  rendering it to SQL text and wrapping it in a ``RemoteQueryOp``; its cost
  is ``transfer_startup + volume * per_byte`` on top of the remote
  execution cost, which is inflated by the remote penalty factor.
* **Cost-based local/remote choice.** For every query block the planner
  costs (a) a *local mix* plan — joins executed locally with each table
  reference choosing its cheapest access path (cached view, local index,
  or per-table remote transfer) — and (b) a *full pushdown* plan that
  ships the whole query block to the backend. The cheaper wins; there are
  no routing heuristics.
* **Dynamic plans.** When a cached view matches a parameterized query only
  under a parameter guard, the planner emits a ChoosePlan: a UnionAll whose
  branches carry mutually exclusive startup predicates (guard / NOT guard),
  costed as the guard-frequency-weighted average of the branches. With
  pull-up enabled (default) the ChoosePlan is hoisted to the top of the
  block so each branch is optimized independently — allowing a larger
  remote pushdown on the guard-false branch, exactly as in Figure 4.
* **Mixed-result plans** (Figure 3) are generated for regular materialized
  views but never for cached views, whose staleness would make a mixed
  result transactionally inconsistent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.common.schema import Column, Schema
from repro.common.types import FLOAT, SqlType
from repro.errors import BindError, OptimizerError
from repro.exec.expressions import ExpressionCompiler, Scalar, column_maker
from repro.exec.operators import (
    AggregateOp,
    AggregateSpec,
    DistinctOp,
    FilterOp,
    HashJoinOp,
    IndexExtremeOp,
    IndexLookupJoinOp,
    IndexRangeScanOp,
    IndexSeekOp,
    MergeJoinOp,
    NestedLoopJoinOp,
    PhysicalOperator,
    ProjectOp,
    RemoteQueryOp,
    SeqScanOp,
    SortOp,
    TopOp,
    UnionAllOp,
    ValuesOp,
)
from repro.optimizer.binder import (
    Namespace,
    collect_aggregates,
    contains_aggregate,
    qualify_expression,
    substitute,
)
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.predicates import (
    and_together,
    conjunct_tables,
    negate,
    normalize_comparison,
    split_conjuncts,
)
from repro.optimizer.viewmatch import ViewMatch, ViewMatcher
from repro.sql import ast
from repro.sql.formatter import format_statement

#: Upper bound on guarded leaves expanded via ChoosePlan pull-up; further
#: guarded leaves stay as leaf-level ChoosePlans to bound plan size.
MAX_PULLED_UP_GUARDS = 2


@dataclass
class PlannedStatement:
    """The result of optimization: an executable plan plus metadata."""

    root: PhysicalOperator
    schema: Schema
    estimated_rows: float
    estimated_cost: float
    uses_remote: bool
    uses_cached_view: bool
    is_dynamic: bool
    #: The currency guard of a statement ``WITH FRESHNESS n SECONDS`` —
    #: ``STALENESS() <= n`` — or None for one that states no bound. The
    #: plan verifier requires every cached-view leaf to sit below it.
    currency: Optional[ast.Expression] = None
    #: Parameters the source statement references (including inside
    #: subqueries); the plan verifier checks bindings against this set.
    required_parameters: frozenset = frozenset()

    def explain(self, costs: bool = False) -> str:
        return self.root.explain(costs=costs)


@dataclass
class _Source:
    """One FROM-clause item after flattening."""

    alias: str
    kind: str  # "table" or "derived"
    table_name: str = ""
    server: Optional[str] = None  # explicit linked server (4-part name)
    subselect: Optional[ast.Select] = None
    columns: List[str] = field(default_factory=list)
    column_types: Dict[str, SqlType] = field(default_factory=dict)
    #: The statement's currency guard (None: no bound): what a cached view
    #: standing in for this source must be guarded by.
    currency: Optional[ast.Expression] = None


@dataclass
class _Leaf:
    """Per-source planning state."""

    source: _Source
    required: List[str]  # lowercase base column names, deterministic order
    conjuncts: List[ast.Expression]
    schema: Schema  # leaf output schema (required columns, alias-qualified)
    is_remote: bool = False
    remote_server: Optional[str] = None
    base_rows: float = 1000.0
    estimator: Optional[CardinalityEstimator] = None


@dataclass
class _LookupInfo:
    """Enough information to convert a scan leaf into an index-lookup join.

    Captured when a leaf resolves to locally stored data (base table on a
    backend server, or a cached/materialized view's backing table); the
    join planner can then probe the storage's indexes per outer row
    instead of scanning it.
    """

    storage_name: str
    full_schema: Schema  # storage columns relabeled into query names
    conjuncts: List[ast.Expression]
    estimator: CardinalityEstimator
    base_rows: float
    leaf: "_Leaf"


@dataclass
class _Plan:
    """A plan fragment with its estimates."""

    op: Optional[PhysicalOperator]
    rows: float
    cost: float
    lookup: Optional[_LookupInfo] = None

    def attach(self) -> "_Plan":
        if self.op is not None:
            self.op.estimated_rows = self.rows
            self.op.estimated_cost = self.cost
        return self


@dataclass
class _DynamicLeaf:
    """A guarded view match at a leaf, pending ChoosePlan construction."""

    leaf: _Leaf
    match: ViewMatch
    guard: ast.Expression
    frequency: float


class Optimizer:
    """Plans SELECT statements against a database (backend or cache)."""

    def __init__(
        self,
        database,
        cost_model: Optional[CostModel] = None,
        enable_dynamic_plans: bool = True,
        pullup_chooseplan: bool = True,
        allow_mixed_results: bool = True,
        force_local_views: bool = False,
        assume_all_local: bool = False,
        parameter_distribution: str = "uniform",
        metrics=None,
    ):
        """``force_local_views`` reproduces the DBCache-style heuristic the
        paper contrasts against: always use a matching cached view
        regardless of cost (for the routing ablation benchmark).

        ``assume_all_local`` turns the optimizer into a *backend cost
        estimator*: every shadow table is costed as if its data were local
        (using the shadowed statistics, indexes and empty storage), cached
        views are ignored, and no pushdown alternative is generated. This
        is how a cache server locally estimates what a query would cost if
        shipped to the backend — the paper's "local optimization" choice
        (§5), adopted precisely because remote optimization would mean
        shipping hundreds of subexpressions per query.
        """
        self.database = database
        self.cost = cost_model or CostModel()
        self.enable_dynamic_plans = enable_dynamic_plans
        self.pullup_chooseplan = pullup_chooseplan
        self.allow_mixed_results = allow_mixed_results
        self.force_local_views = force_local_views
        self.assume_all_local = assume_all_local
        # Guard-frequency estimation mode for dynamic plans (paper §5.1):
        # "uniform" over [min, max] (the paper's choice) or "column" (the
        # column-value-distribution alternative it mentions).
        self.parameter_distribution = parameter_distribution
        self.view_matcher = ViewMatcher(
            database.catalog, lambda name: self._object_columns(name)
        )
        self._backend_estimator_cache: Optional[Tuple[int, "Optimizer"]] = None
        # Observability: the owning server's MetricsRegistry (None when
        # disabled); plan_select records what kind of plan came out.
        self.metrics = metrics

    def _record(self, planned: PlannedStatement) -> PlannedStatement:
        """Count the produced plan's shape on the metrics registry."""
        if self.metrics is not None:
            self.metrics.counter("optimizer.plans").inc()
            if planned.is_dynamic:
                self.metrics.counter("optimizer.dynamic_plans").inc()
            if planned.uses_remote:
                self.metrics.counter("optimizer.remote_plans").inc()
            if planned.uses_cached_view:
                self.metrics.counter("optimizer.cached_view_plans").inc()
        return planned

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------

    def plan_select(
        self, select: ast.Select, currency: Optional[ast.Expression] = None
    ) -> PlannedStatement:
        """Optimize a SELECT into an executable physical plan.

        A ``WITH FRESHNESS n SECONDS`` bound never changes which plan is
        built, only what guards it: wherever a cached view stands in for a
        backend table, ``STALENESS() <= n`` — evaluated when the plan
        opens, against the cache's one replication watermark — is one more
        conjunct of the local branch's startup guard, and the backend
        fetch is the other branch (paper §5.1, Figure 2). So one cached
        plan serves the statement however stale the cache is when it runs.
        ``currency`` is the enclosing statement's guard, when planning a
        derived table.
        """
        if select.freshness is not None:
            currency = ast.BinaryOp(
                "<=",
                ast.FuncCall("STALENESS", ()),
                ast.Literal(select.freshness.max_staleness_seconds),
            )

        used_remote = used_view = is_dynamic = False
        sources, namespace, normalized, has_outer = self.bind(select, currency)
        if select.from_clause is None:
            plan = self._plan_values(select)
        else:
            if has_outer:
                plan, used_remote, used_view = self._plan_syntactic(
                    select, sources, namespace, normalized
                )
            else:
                plan, used_remote, used_view, is_dynamic = self._plan_block(
                    select, sources, namespace, normalized
                )
            plan.attach()
        return self._record(PlannedStatement(
            root=plan.op,
            schema=plan.op.schema,
            estimated_rows=plan.rows,
            estimated_cost=plan.cost,
            uses_remote=used_remote,
            uses_cached_view=used_view,
            is_dynamic=is_dynamic,
            currency=currency,
            required_parameters=frozenset(ast.statement_parameters(select)),
        ))

    # ------------------------------------------------------------------
    # binding and normalization
    # ------------------------------------------------------------------

    def bind(
        self, select: ast.Select, currency: Optional[ast.Expression] = None
    ) -> Tuple[List[_Source], Namespace, Dict[str, Any], bool]:
        """Resolve every name ``select`` uses and check its operand types
        — ``BindError`` / ``TypeCheckError`` before any plan is built, so
        no access path can answer a statement another path refuses.
        Subqueries are bound here too, whether or not a row ever reaches
        them. Returns the sources, their namespace, the normalized clauses
        and whether the FROM clause has an outer join."""
        sources: List[_Source] = []
        join_conjuncts: List[ast.Expression] = []
        has_outer = False
        if select.from_clause is not None:
            sources, join_conjuncts, has_outer = self._collect_sources(
                select.from_clause, currency
            )
        namespace = Namespace()
        for source in sources:
            namespace.add(source.alias, source.columns)
        normalized = self._normalize(select, namespace, join_conjuncts)
        column_types = {source.alias.lower(): source.column_types for source in sources}

        def column_type(ref: ast.ColumnRef) -> Optional[SqlType]:
            return column_types[ref.qualifier.lower()].get(ref.name.lower())

        expressions = [item.expression for item in normalized["items"]]
        expressions += normalized["conjuncts"] + normalized["group_by"]
        expressions += [entry.expression for entry in normalized["order_by"]]
        if normalized["having"] is not None:
            expressions.append(normalized["having"])
        for expression in expressions:
            ast.check_types(expression, column_type)
            for node in ast.walk_expression(expression):
                if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
                    self.bind(node.subquery)
        return sources, namespace, normalized, has_outer


    def _estimator(self, stats) -> CardinalityEstimator:
        """Build an estimator honouring the guard-frequency mode."""
        return CardinalityEstimator(
            stats, parameter_distribution=self.parameter_distribution
        )

    def _object_columns(self, name: str) -> List[str]:
        table = self.database.catalog.maybe_table(name)
        if table is not None:
            return table.schema.names
        view = self.database.catalog.maybe_view(name)
        if view is not None:
            return view.schema.names
        raise BindError(f"unknown object {name!r}")

    def _object_schema(self, name: str) -> Schema:
        table = self.database.catalog.maybe_table(name)
        if table is not None:
            return table.schema
        view = self.database.catalog.maybe_view(name)
        if view is not None:
            return view.schema
        raise BindError(f"unknown object {name!r}")

    def _collect_sources(
        self, ref: ast.TableRef, currency: Optional[ast.Expression] = None
    ) -> Tuple[List[_Source], List[ast.Expression], bool]:
        """Flatten the FROM tree; returns sources, ON conjuncts, has_outer."""
        sources: List[_Source] = []
        conjuncts: List[ast.Expression] = []
        has_outer = False

        def visit(node: ast.TableRef) -> None:
            nonlocal has_outer
            if isinstance(node, ast.JoinRef):
                if node.kind == "LEFT":
                    has_outer = True
                visit(node.left)
                visit(node.right)
                if node.condition is not None:
                    conjuncts.extend(split_conjuncts(node.condition))
                return
            sources.append(self._make_source(node, currency))

        visit(ref)
        return sources, conjuncts, has_outer

    def _make_source(
        self, node: ast.TableRef, currency: Optional[ast.Expression] = None
    ) -> _Source:
        if isinstance(node, ast.DerivedTable):
            sub_schema = self._select_output_schema(node.select)
            return _Source(
                alias=node.alias,
                kind="derived",
                subselect=node.select,
                columns=list(sub_schema.names),
                column_types={
                    column.name.lower(): column.sql_type for column in sub_schema
                },
                currency=currency,
            )
        assert isinstance(node, ast.TableName)
        object_name = node.object_name
        server = node.server
        # Plain (virtual) views are substituted inline as derived tables —
        # and so is a cached view a bounded statement names itself: its
        # definition reads the backend table, which the view then stands
        # in for under the currency guard like anywhere else.
        view = self.database.catalog.maybe_view(object_name)
        if (
            view is not None
            and server is None
            and (not view.materialized or (view.cached and currency is not None))
        ):
            derived = ast.DerivedTable(view.select, node.binding_name)
            return self._make_source(derived, currency)
        if server is not None:
            schema = self._linked_object_schema(server, object_name)
        else:
            schema = self._object_schema(object_name)
        return _Source(
            alias=node.binding_name,
            kind="table",
            table_name=object_name,
            server=server,
            columns=list(schema.names),
            column_types={column.name.lower(): column.sql_type for column in schema},
            currency=currency,
        )

    def _normalize(
        self,
        select: ast.Select,
        namespace: Namespace,
        join_conjuncts: List[ast.Expression],
    ) -> Dict[str, Any]:
        """Qualify all expressions; expand stars; split conjuncts."""
        items: List[ast.SelectItem] = []
        for item in select.items:
            if isinstance(item.expression, ast.Star):
                for alias in (
                    [item.expression.qualifier.lower()]
                    if item.expression.qualifier
                    else namespace.aliases()
                ):
                    for column in namespace.columns_of(alias):
                        items.append(
                            ast.SelectItem(ast.ColumnRef(column, qualifier=alias))
                        )
                continue
            items.append(
                ast.SelectItem(
                    qualify_expression(item.expression, namespace),
                    alias=item.alias,
                    target_parameter=item.target_parameter,
                )
            )

        conjuncts = [
            qualify_expression(conjunct, namespace)
            for conjunct in split_conjuncts(select.where) + join_conjuncts
        ]
        group_by = [qualify_expression(expr, namespace) for expr in select.group_by]
        having = (
            qualify_expression(select.having, namespace)
            if select.having is not None
            else None
        )

        # ORDER BY may reference select-list aliases.
        alias_map = {
            item.alias.lower(): item.expression
            for item in items
            if item.alias
        }
        order_by: List[ast.OrderItem] = []
        for entry in select.order_by:
            expression = entry.expression
            if (
                isinstance(expression, ast.ColumnRef)
                and expression.qualifier is None
                and expression.name.lower() in alias_map
            ):
                expression = alias_map[expression.name.lower()]
            else:
                expression = qualify_expression(expression, namespace)
            order_by.append(ast.OrderItem(expression, entry.descending))

        return {
            "items": items,
            "conjuncts": conjuncts,
            "group_by": group_by,
            "having": having,
            "order_by": order_by,
        }

    # ------------------------------------------------------------------
    # leaf construction
    # ------------------------------------------------------------------

    def _build_leaves(
        self,
        sources: List[_Source],
        normalized: Dict[str, Any],
    ) -> Tuple[List[_Leaf], List[ast.Expression]]:
        """Attribute conjuncts and required columns to each source."""
        all_expressions: List[ast.Expression] = [
            item.expression for item in normalized["items"]
        ]
        all_expressions.extend(normalized["conjuncts"])
        all_expressions.extend(normalized["group_by"])
        if normalized["having"] is not None:
            all_expressions.append(normalized["having"])
        all_expressions.extend(entry.expression for entry in normalized["order_by"])

        required: Dict[str, Set[str]] = {source.alias.lower(): set() for source in sources}
        for expression in all_expressions:
            for column in ast.expression_columns(expression):
                if column.qualifier:
                    required[column.qualifier.lower()].add(column.name.lower())

        single: Dict[str, List[ast.Expression]] = {
            source.alias.lower(): [] for source in sources
        }
        multi: List[ast.Expression] = []
        for conjunct in normalized["conjuncts"]:
            aliases = {alias for alias in conjunct_tables(conjunct) if alias}
            if len(aliases) == 1:
                single[next(iter(aliases))].append(conjunct)
            else:
                multi.append(conjunct)

        leaves: List[_Leaf] = []
        for source in sources:
            key = source.alias.lower()
            ordered_required = [
                column
                for column in (name.lower() for name in source.columns)
                if column in required[key]
            ]
            if not ordered_required:
                # A leaf must output at least one column (e.g. COUNT(*)).
                ordered_required = [source.columns[0].lower()]
            schema = Schema(
                Column(
                    name=column,
                    sql_type=source.column_types.get(column, FLOAT),
                    qualifier=source.alias,
                )
                for column in ordered_required
            )
            leaf = _Leaf(
                source=source,
                required=ordered_required,
                conjuncts=single[key],
                schema=schema,
            )
            self._classify_leaf(leaf)
            leaves.append(leaf)
        return leaves, multi

    def _linked_database(self, server_name: str):
        """Resolve a linked server name to its target database."""
        owner = getattr(self.database, "owner_server", None)
        if owner is None:
            raise OptimizerError(
                f"cannot resolve linked server {server_name!r}: database has no owner server"
            )
        link = owner.linked_servers.get(server_name)
        return link.server.database(link.database)

    def _linked_object_schema(self, server_name: str, object_name: str) -> Schema:
        remote_db = self._linked_database(server_name)
        table = remote_db.catalog.maybe_table(object_name)
        if table is not None:
            return table.schema
        view = remote_db.catalog.maybe_view(object_name)
        if view is not None:
            return view.schema
        raise BindError(
            f"unknown object {object_name!r} on linked server {server_name!r}"
        )

    def _classify_leaf(self, leaf: _Leaf) -> None:
        source = leaf.source
        if source.kind == "derived":
            leaf.is_remote = False
            leaf.base_rows = 1000.0
            leaf.estimator = self._estimator(None)
            return
        if source.server is not None:
            try:
                stats = self._linked_database(source.server).stats_for(source.table_name)
            except Exception:
                stats = None
        else:
            stats = self.database.stats_for(source.table_name)
        leaf.estimator = self._estimator(stats)
        leaf.base_rows = float(stats.row_count) if stats is not None else 1000.0
        if self.assume_all_local:
            leaf.is_remote = False
        elif source.server is not None:
            leaf.is_remote = True
            leaf.remote_server = source.server
        elif self.database.is_remote_table(source.table_name):
            leaf.is_remote = True
            leaf.remote_server = self.database.backend_server
        else:
            leaf.is_remote = False

    # ------------------------------------------------------------------
    # leaf access paths
    # ------------------------------------------------------------------

    def _leaf_base_plan(self, leaf: _Leaf) -> _Plan:
        """Cheapest plan reading the leaf from its base location."""
        if leaf.source.kind == "derived":
            return self._leaf_derived_plan(leaf)
        if leaf.is_remote:
            return self._leaf_remote_plan(leaf)
        return self._leaf_local_plan(leaf)

    def _leaf_derived_plan(self, leaf: _Leaf) -> _Plan:
        planned = self.plan_select(leaf.source.subselect, leaf.source.currency)
        inner = planned.root
        # Re-qualify the derived output under the leaf alias, apply the
        # query's pushed-down conjuncts, then project to the required
        # columns.
        aliased_schema = planned.schema.with_qualifier(leaf.source.alias)
        relabeled: PhysicalOperator = _RelabelOp(inner, aliased_schema)
        rows = planned.estimated_rows
        cost = planned.estimated_cost
        if leaf.conjuncts:
            predicate = ExpressionCompiler(aliased_schema).compile(
                and_together(leaf.conjuncts)
            )
            relabeled = FilterOp(relabeled, predicate)
            cost += self.cost.filter(rows)
            estimator = leaf.estimator or self._estimator(None)
            rows = max(0.0, rows * estimator.selectivity(leaf.conjuncts))
        positions = [
            aliased_schema.resolve(column, leaf.source.alias) for column in leaf.required
        ]
        makers: List[Scalar] = [column_maker(position) for position in positions]
        project = ProjectOp(relabeled, leaf.schema, makers)
        cost += self.cost.project(rows)
        return _Plan(project, rows, cost).attach()

    def _leaf_local_plan(
        self,
        leaf: _Leaf,
        storage_name: Optional[str] = None,
        labeled_schema: Optional[Schema] = None,
        conjuncts: Optional[List[ast.Expression]] = None,
        rows_hint: Optional[float] = None,
    ) -> _Plan:
        """Access a locally stored object (base table or view backing).

        ``labeled_schema`` relabels the storage's columns into the query's
        namespace (used when scanning a view whose output names differ from
        the base table's). Index selection considers every storage index.
        """
        table_name = storage_name or leaf.source.table_name
        storage = self.database.storage_table(table_name)
        full_schema = (
            labeled_schema
            if labeled_schema is not None
            else self._object_schema(table_name).with_qualifier(leaf.source.alias)
        )
        conjuncts = leaf.conjuncts if conjuncts is None else conjuncts
        estimator = leaf.estimator or self._estimator(None)
        base_rows = rows_hint if rows_hint is not None else float(len(storage) or leaf.base_rows)
        selectivity = estimator.selectivity(conjuncts) if conjuncts else 1.0
        out_rows = max(0.0, base_rows * selectivity)

        compiler = ExpressionCompiler(full_schema)
        best_op: Optional[PhysicalOperator] = None
        best_cost = float("inf")

        # Sequential scan alternative.
        scan: PhysicalOperator = SeqScanOp(full_schema, table_name)
        scan_cost = self.cost.seq_scan(base_rows) + self.cost.filter(base_rows)
        if conjuncts:
            predicate = compiler.compile(and_together(conjuncts))
            scan = FilterOp(scan, predicate)
        best_op, best_cost = scan, scan_cost

        # Index alternatives.
        for index in storage.indexes.values():
            candidate = self._index_access(
                leaf, table_name, full_schema, index, conjuncts, base_rows, compiler, estimator
            )
            if candidate is not None and candidate.cost < best_cost:
                best_op, best_cost = candidate.op, candidate.cost

        project = self._project_to_leaf_schema(best_op, full_schema, leaf)
        total = best_cost + self.cost.project(out_rows)
        lookup = _LookupInfo(
            storage_name=table_name,
            full_schema=full_schema,
            conjuncts=list(conjuncts),
            estimator=estimator,
            base_rows=base_rows,
            leaf=leaf,
        )
        return _Plan(project, out_rows, total, lookup=lookup).attach()

    def _index_access(
        self,
        leaf: _Leaf,
        table_name: str,
        full_schema: Schema,
        index,
        conjuncts: List[ast.Expression],
        base_rows: float,
        compiler: ExpressionCompiler,
        estimator: CardinalityEstimator,
    ) -> Optional[_Plan]:
        """Build an index seek/range alternative when conjuncts allow."""
        comparisons = [
            comparison
            for comparison in (normalize_comparison(c) for c in conjuncts)
            if comparison is not None
        ]
        by_column: Dict[str, List] = {}
        for comparison in comparisons:
            by_column.setdefault(comparison.column.name.lower(), []).append(comparison)

        # Longest equality prefix.
        key_makers: List[Scalar] = []
        consumed_selectivity = 1.0
        blank = ExpressionCompiler(Schema(()))
        for column_name in index.column_names:
            candidates = [
                comparison
                for comparison in by_column.get(column_name.lower(), [])
                if comparison.op == "="
            ]
            if not candidates:
                break
            operand = candidates[0].operand
            key_makers.append(blank.compile(operand))
            consumed_selectivity *= estimator.conjunct_selectivity(
                ast.BinaryOp("=", candidates[0].column, operand)
            )

        low_makers = high_makers = None
        low_inclusive = high_inclusive = True
        if len(key_makers) < len(index.column_names):
            # A range bound on the next key column extends the access path.
            next_column = index.column_names[len(key_makers)].lower()
            lows = [c for c in by_column.get(next_column, []) if c.op in (">", ">=")]
            highs = [c for c in by_column.get(next_column, []) if c.op in ("<", "<=")]
            prefix = list(key_makers)
            if lows:
                low_makers = prefix + [blank.compile(lows[0].operand)]
                low_inclusive = lows[0].op == ">="
            if highs:
                high_makers = prefix + [blank.compile(highs[0].operand)]
                high_inclusive = highs[0].op == "<="
            if lows or highs:
                bound = lows[0] if lows else highs[0]
                consumed_selectivity *= estimator.conjunct_selectivity(
                    ast.BinaryOp(bound.op, bound.column, bound.operand)
                )
                if key_makers and not lows:
                    low_makers = prefix
                if key_makers and not highs:
                    high_makers = prefix
                op: PhysicalOperator = IndexRangeScanOp(
                    full_schema,
                    table_name,
                    index.name,
                    low_makers,
                    high_makers,
                    low_inclusive,
                    high_inclusive,
                )
            elif key_makers:
                op = IndexSeekOp(full_schema, table_name, index.name, key_makers)
            else:
                return None
        elif key_makers:
            op = IndexSeekOp(full_schema, table_name, index.name, key_makers)
        else:
            return None

        matched_rows = max(1.0, base_rows * consumed_selectivity)
        cost = self.cost.index_seek(matched_rows) + self.cost.filter(matched_rows)
        if conjuncts:
            predicate = compiler.compile(and_together(conjuncts))
            op = FilterOp(op, predicate)
        return _Plan(op, matched_rows, cost)

    def _project_to_leaf_schema(
        self, op: PhysicalOperator, full_schema: Schema, leaf: _Leaf
    ) -> PhysicalOperator:
        positions = [
            full_schema.resolve(column, leaf.source.alias) for column in leaf.required
        ]
        makers = [column_maker(position) for position in positions]
        return ProjectOp(op, leaf.schema, makers)

    def _leaf_remote_plan(
        self, leaf: _Leaf, extra_predicate: Optional[ast.Expression] = None
    ) -> _Plan:
        """DataTransfer of a select-project over the leaf's base table."""
        conjuncts = list(leaf.conjuncts)
        if extra_predicate is not None:
            conjuncts = split_conjuncts(extra_predicate)
        sql_text = self._leaf_remote_sql(leaf, conjuncts)
        estimator = leaf.estimator or self._estimator(None)
        selectivity = estimator.selectivity(conjuncts) if conjuncts else 1.0
        out_rows = max(0.0, leaf.base_rows * selectivity)
        backend_cost = self._estimate_backend_access(leaf, conjuncts)
        cost = self.cost.remote(backend_cost) + self.cost.data_transfer(
            out_rows, leaf.schema.row_width
        )
        server = leaf.remote_server or self.database.backend_server
        if server is None:
            raise OptimizerError(
                f"table {leaf.source.table_name!r} is remote but no backend server is configured"
            )
        op = RemoteQueryOp(leaf.schema, server, sql_text)
        return _Plan(op, out_rows, cost).attach()

    def _leaf_remote_sql(self, leaf: _Leaf, conjuncts: List[ast.Expression]) -> str:
        alias = leaf.source.alias
        items = tuple(
            ast.SelectItem(ast.ColumnRef(column, qualifier=alias))
            for column in leaf.required
        )
        select = ast.Select(
            items=items,
            from_clause=ast.TableName(
                (leaf.source.table_name,),
                alias=alias if alias.lower() != leaf.source.table_name.lower() else None,
            ),
            where=and_together(list(conjuncts)),
        )
        return format_statement(select)

    def _estimate_backend_access(
        self, leaf: _Leaf, conjuncts: List[ast.Expression]
    ) -> float:
        """Estimated cost of the leaf's access path on the backend server.

        Uses the shadowed catalog: the backend is assumed to have exactly
        the indexes the (shadow) catalog lists.
        """
        estimator = leaf.estimator or self._estimator(None)
        base_rows = leaf.base_rows
        scan_cost = self.cost.seq_scan(base_rows) + self.cost.filter(base_rows)
        best = scan_cost
        comparisons = [
            comparison
            for comparison in (normalize_comparison(c) for c in conjuncts)
            if comparison is not None
        ]
        eq_columns = {c.column.name.lower() for c in comparisons if c.op == "="}
        range_columns = {c.column.name.lower() for c in comparisons if c.op in ("<", "<=", ">", ">=")}
        index_defs = list(self.database.catalog.indexes_on(leaf.source.table_name))
        table_def = self.database.catalog.maybe_table(leaf.source.table_name)
        if table_def is not None and table_def.primary_key:
            index_defs.append(
                dataclasses.replace(
                    index_defs[0], columns=table_def.primary_key, name="_pk"
                )
                if index_defs
                else _FakeIndexDef(table_def.primary_key)
            )
        for index in index_defs:
            selectivity = 1.0
            usable = False
            for column_name in index.columns:
                key = column_name.lower()
                if key in eq_columns:
                    usable = True
                    selectivity *= estimator.conjunct_selectivity(
                        ast.BinaryOp("=", ast.ColumnRef(column_name), ast.Literal(0))
                    )
                elif key in range_columns:
                    usable = True
                    selectivity *= 1.0 / 3.0
                    break
                else:
                    break
            if usable:
                matched = max(1.0, base_rows * selectivity)
                cost = self.cost.index_seek(matched) + self.cost.filter(matched)
                best = min(best, cost)
        return best

    def _leaf_view_plan(self, leaf: _Leaf, match: ViewMatch) -> _Plan:
        """Scan a matching materialized view, relabeled into query names."""
        view_name = match.view.name
        storage = self.database.storage_table(view_name)
        view_schema = self._object_schema(view_name)
        # Relabel view output columns back to base-table names under the
        # query alias so residual predicates and upper operators resolve.
        reverse = {
            output.lower(): base
            for base, output in match.description.column_mapping.items()
        }
        labeled = Schema(
            Column(
                name=reverse.get(column.name.lower(), column.name),
                sql_type=column.sql_type,
                qualifier=leaf.source.alias,
            )
            for column in view_schema
        )
        view_stats = self.database.stats_for(view_name)
        rows_hint = (
            float(view_stats.row_count)
            if view_stats is not None
            else float(len(storage))
        )
        view_estimator = self._estimator(view_stats)
        saved = leaf.estimator
        leaf.estimator = view_estimator
        try:
            plan = self._leaf_local_plan(
                leaf,
                storage_name=view_name,
                labeled_schema=labeled,
                conjuncts=leaf.conjuncts,
                rows_hint=rows_hint,
            )
        finally:
            leaf.estimator = saved
        return plan

    # ------------------------------------------------------------------
    # leaf decision (the cost-based local/remote/view choice)
    # ------------------------------------------------------------------

    def _decide_leaf(self, leaf: _Leaf) -> Tuple[_Plan, Optional[_DynamicLeaf], bool]:
        """Choose the leaf's access path.

        Returns ``(plan, dynamic, used_view)``. When ``dynamic`` is not
        None the returned plan is the *base* (guard-false) plan and the
        caller must build a ChoosePlan. Under a bounded statement a cached
        view is only ever the guarded half of such a pair: the currency
        bound is one more conjunct of its guard.
        """
        base_plan = self._leaf_base_plan(leaf)
        if leaf.source.kind == "derived":
            return base_plan, None, False

        matches = self.view_matcher.matches(
            leaf.source.table_name,
            set(leaf.required),
            leaf.conjuncts,
        )
        if self.assume_all_local:
            # Backend cost estimation: the backend has no cached views.
            matches = [match for match in matches if not match.view.cached]
        if not matches:
            return base_plan, None, False
        currency = leaf.source.currency

        # Unconditional matches: plain cost comparison with the base path.
        for match in matches:
            if match.unconditional:
                view_plan = self._leaf_view_plan(leaf, match)
                if not (self.force_local_views or view_plan.cost <= base_plan.cost):
                    return base_plan, None, False
                if currency is None or not match.view.cached:
                    return view_plan, None, True
                if not self.enable_dynamic_plans:
                    return base_plan, None, False
                return base_plan, _DynamicLeaf(leaf, match, currency, 1.0), True

        if not self.enable_dynamic_plans:
            return base_plan, None, False

        match = matches[0]
        guard = match.guard_expression()
        guard_column = match.guards[0][1]
        frequency = (leaf.estimator or self._estimator(None)).guard_frequency_for_column(
            guard, guard_column
        )
        if currency is not None and match.view.cached:
            guard = ast.BinaryOp("AND", guard, currency)

        # Mixed-result alternative (Figure 3): allowed only for regular
        # materialized views; cached views would give inconsistent results.
        if (
            self.allow_mixed_results
            and not match.view.cached
            and match.remainder is not None
            and leaf.is_remote
        ):
            mixed = self._leaf_mixed_plan(leaf, match, guard, frequency)
            view_plan = self._leaf_view_plan(leaf, match)
            dynamic_cost = frequency * view_plan.cost + (1 - frequency) * base_plan.cost
            if mixed.cost < dynamic_cost:
                return mixed, None, True

        view_plan = self._leaf_view_plan(leaf, match)
        dynamic_cost = frequency * view_plan.cost + (1 - frequency) * base_plan.cost
        if not self.force_local_views and dynamic_cost >= base_plan.cost:
            return base_plan, None, False
        dynamic = _DynamicLeaf(leaf, match, guard, frequency)
        return base_plan, dynamic, True

    def _leaf_mixed_plan(
        self, leaf: _Leaf, match: ViewMatch, guard: ast.Expression, frequency: float
    ) -> _Plan:
        """Figure 3: view rows plus guarded remote fetch of the remainder."""
        view_plan = self._leaf_view_plan(leaf, match)
        remote_plan = self._leaf_remote_plan(leaf, extra_predicate=match.remainder)
        blank = ExpressionCompiler(Schema(()))
        not_guard = negate(guard)
        startup = blank.compile(not_guard)
        guarded_remote = FilterOp(
            remote_plan.op,
            startup_predicate=startup,
            description="remainder",
            startup_guard=not_guard,
        )
        op = UnionAllOp([view_plan.op, guarded_remote])
        rows = view_plan.rows + (1 - frequency) * remote_plan.rows
        cost = view_plan.cost + (1 - frequency) * remote_plan.cost
        return _Plan(op, rows, cost).attach()

    def _leaf_chooseplan(
        self, view_plan: _Plan, base_plan: _Plan, dynamic: _DynamicLeaf
    ) -> _Plan:
        """ChoosePlan over two plans — of one leaf, or of the whole block
        with that leaf forced either way (pull-up): UnionAll + startup
        guards."""
        blank = ExpressionCompiler(Schema(()))
        not_guard = negate(dynamic.guard)
        guard_fn = blank.compile(dynamic.guard)
        not_guard_fn = blank.compile(not_guard)
        local_branch = FilterOp(
            view_plan.op,
            startup_predicate=guard_fn,
            description="guard",
            startup_guard=dynamic.guard,
        )
        remote_branch = FilterOp(
            base_plan.op,
            startup_predicate=not_guard_fn,
            description="not guard",
            startup_guard=not_guard,
        )
        op = UnionAllOp([local_branch, remote_branch], choose_plan=True)
        frequency = dynamic.frequency
        rows = frequency * view_plan.rows + (1 - frequency) * base_plan.rows
        cost = frequency * view_plan.cost + (1 - frequency) * base_plan.cost
        return _Plan(op, rows, cost).attach()

    # ------------------------------------------------------------------
    # join planning
    # ------------------------------------------------------------------

    def _plan_joins(
        self,
        leaf_plans: List[Tuple[_Leaf, _Plan]],
        multi_conjuncts: List[ast.Expression],
    ) -> _Plan:
        """Greedy left-deep join ordering with hash joins on equi-keys."""
        remaining = sorted(leaf_plans, key=lambda pair: pair[1].rows)
        pending = list(multi_conjuncts)

        current_leaf, current_plan = remaining.pop(0)
        current_schema = current_plan.op.schema
        bound_aliases = {current_leaf.source.alias.lower()}
        op = current_plan.op
        rows = current_plan.rows
        cost = current_plan.cost

        while remaining:
            # Prefer a leaf connected to the bound set by some conjunct.
            chosen_index = None
            for index, (leaf, _) in enumerate(remaining):
                alias = leaf.source.alias.lower()
                for conjunct in pending:
                    aliases = {a for a in conjunct_tables(conjunct) if a}
                    if alias in aliases and aliases - {alias} <= bound_aliases:
                        chosen_index = index
                        break
                if chosen_index is not None:
                    break
            if chosen_index is None:
                chosen_index = 0
            leaf, plan = remaining.pop(chosen_index)
            alias = leaf.source.alias.lower()
            combined_schema = current_schema.concat(plan.op.schema)

            applicable: List[ast.Expression] = []
            still_pending: List[ast.Expression] = []
            for conjunct in pending:
                aliases = {a for a in conjunct_tables(conjunct) if a}
                if aliases <= bound_aliases | {alias}:
                    applicable.append(conjunct)
                else:
                    still_pending.append(conjunct)
            pending = still_pending

            equi_pairs: List[Tuple[ast.Expression, ast.Expression]] = []
            residual: List[ast.Expression] = []
            for conjunct in applicable:
                keys = self._equi_keys(conjunct, bound_aliases, {alias})
                if keys is not None:
                    equi_pairs.append(keys)
                else:
                    residual.append(conjunct)

            join_selectivity = 0.1 if applicable else 1.0
            if equi_pairs:
                left_compiler = ExpressionCompiler(current_schema)
                hash_cost = plan.cost + self.cost.hash_join(rows, plan.rows)
                ndv = self._join_key_ndv(plan, equi_pairs)
                equi_rows = max(1.0, rows * plan.rows / max(1.0, ndv))
                if residual:
                    equi_rows = max(1.0, equi_rows * 0.5)
                lookup = self._try_index_lookup_join(
                    op, rows, current_schema, leaf, plan, equi_pairs, residual, hash_cost
                )
                if lookup is not None:
                    op, join_cost, join_rows = lookup
                    cost += join_cost
                    rows = min(join_rows, equi_rows) if equi_rows else join_rows
                else:
                    right_compiler = ExpressionCompiler(plan.op.schema)
                    equi_left = [left_compiler.compile(le) for le, _ in equi_pairs]
                    equi_right = [right_compiler.compile(re) for _, re in equi_pairs]
                    residual_fn = (
                        ExpressionCompiler(combined_schema).compile(and_together(residual))
                        if residual
                        else None
                    )
                    merge_cost = plan.cost + self.cost.merge_join(rows, plan.rows)
                    if merge_cost < hash_cost:
                        op = MergeJoinOp(op, plan.op, equi_left, equi_right, residual_fn)
                        cost += merge_cost
                    else:
                        op = HashJoinOp(op, plan.op, equi_left, equi_right, residual_fn)
                        cost += hash_cost
                    rows = equi_rows
            else:
                predicate = (
                    ExpressionCompiler(combined_schema).compile(and_together(applicable))
                    if applicable
                    else None
                )
                op = NestedLoopJoinOp(op, plan.op, predicate)
                cost += plan.cost + self.cost.nested_loop_join(rows, plan.rows)
                rows = max(1.0, rows * plan.rows * join_selectivity)
            current_schema = combined_schema
            bound_aliases.add(alias)

        # Any pending conjuncts now apply as a filter.
        if pending:
            predicate = ExpressionCompiler(current_schema).compile(and_together(pending))
            op = FilterOp(op, predicate)
            cost += self.cost.filter(rows)
            rows *= 0.5
        return _Plan(op, rows, cost).attach()

    def _join_key_ndv(
        self,
        plan: _Plan,
        equi_pairs: List[Tuple[ast.Expression, ast.Expression]],
    ) -> float:
        """Distinct count of the incoming leaf's join key (System-R rule:
        equi-join output is |L|·|R| / max NDV)."""
        best = 0.0
        info = plan.lookup
        for _, right_expr in equi_pairs:
            if not isinstance(right_expr, ast.ColumnRef):
                continue
            stats = None
            if info is not None and info.estimator.statistics is not None:
                stats = info.estimator.statistics.column(right_expr.name)
            if stats is not None:
                best = max(best, float(stats.distinct_count))
        if best <= 0:
            best = max(10.0, plan.rows)
        return best

    def _try_index_lookup_join(
        self,
        left_op: PhysicalOperator,
        left_rows: float,
        left_schema: Schema,
        leaf: _Leaf,
        plan: _Plan,
        equi_pairs: List[Tuple[ast.Expression, ast.Expression]],
        residual: List[ast.Expression],
        hash_cost: float,
    ) -> Optional[Tuple[PhysicalOperator, float, float]]:
        """Consider an index nested-loop join into a locally stored leaf.

        Returns ``(op, added_cost, output_rows)`` when a right-side index
        matches an equi-join column and probing beats the hash join.
        """
        info = plan.lookup
        if info is None:
            return None
        storage = self.database.storage_table(info.storage_name)

        # Find an equi pair whose right side is a plain column of this leaf
        # with an index led by that column.
        for pair_index, (left_expr, right_expr) in enumerate(equi_pairs):
            if not isinstance(right_expr, ast.ColumnRef):
                continue
            # Map the query-name column to the storage's physical column.
            position = info.full_schema.maybe_resolve(
                right_expr.name, right_expr.qualifier
            )
            if position is None:
                continue
            physical_column = storage.schema[position].name
            index = storage.find_index([physical_column])
            if index is None:
                continue

            ndv = 1.0
            stats = (
                info.estimator.statistics.column(physical_column)
                if info.estimator.statistics is not None
                else None
            )
            if stats is not None:
                ndv = max(1.0, float(stats.distinct_count))
            else:
                ndv = max(1.0, info.base_rows / 10.0)
            matches_per_probe = info.base_rows / ndv
            leaf_selectivity = (
                info.estimator.selectivity(info.conjuncts) if info.conjuncts else 1.0
            )
            lookup_cost = self.cost.index_lookup_join(left_rows, matches_per_probe)
            if lookup_cost >= hash_cost:
                return None

            left_compiler = ExpressionCompiler(left_schema)
            key_maker = left_compiler.compile(left_expr)
            full_compiler = ExpressionCompiler(info.full_schema)
            right_predicate = (
                full_compiler.compile(and_together(info.conjuncts))
                if info.conjuncts
                else None
            )
            right_positions = [
                info.full_schema.resolve(column, leaf.source.alias)
                for column in leaf.required
            ]
            combined_schema = left_schema.concat(leaf.schema)
            leftover = residual + [
                ast.BinaryOp("=", le, re)
                for idx, (le, re) in enumerate(equi_pairs)
                if idx != pair_index
            ]
            residual_fn = (
                ExpressionCompiler(combined_schema).compile(and_together(leftover))
                if leftover
                else None
            )
            op = IndexLookupJoinOp(
                left_op,
                leaf.schema,
                info.storage_name,
                index.name,
                [key_maker],
                right_positions,
                right_predicate,
                residual_fn,
            )
            out_rows = max(
                1.0, left_rows * matches_per_probe * leaf_selectivity * (0.5 if leftover else 1.0)
            )
            return op, lookup_cost, out_rows
        return None

    def _equi_keys(
        self,
        conjunct: ast.Expression,
        left_aliases: Set[str],
        right_aliases: Set[str],
    ) -> Optional[Tuple[ast.Expression, ast.Expression]]:
        """Detect ``left_expr = right_expr`` across the two sides."""
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            return None
        left_tables = {a for a in conjunct_tables(conjunct.left) if a}
        right_tables = {a for a in conjunct_tables(conjunct.right) if a}
        if not left_tables or not right_tables:
            return None
        if left_tables <= left_aliases and right_tables <= right_aliases:
            return conjunct.left, conjunct.right
        if left_tables <= right_aliases and right_tables <= left_aliases:
            return conjunct.right, conjunct.left
        return None

    # ------------------------------------------------------------------
    # aggregation / projection / ordering
    # ------------------------------------------------------------------

    def _finish_block(
        self,
        select: ast.Select,
        input_plan: _Plan,
        normalized: Dict[str, Any],
    ) -> _Plan:
        """Apply aggregation, HAVING, projection, DISTINCT, ORDER, TOP."""
        op = input_plan.op
        rows = input_plan.rows
        cost = input_plan.cost
        schema = op.schema
        items: List[ast.SelectItem] = normalized["items"]
        group_by: List[ast.Expression] = normalized["group_by"]
        having = normalized["having"]
        order_by: List[ast.OrderItem] = normalized["order_by"]

        needs_aggregation = bool(group_by) or any(
            contains_aggregate(item.expression) for item in items
        ) or (having is not None and contains_aggregate(having))

        mapping: Dict[ast.Expression, ast.ColumnRef] = {}
        if needs_aggregation:
            aggregates: List[ast.FuncCall] = []
            for expression in [item.expression for item in items] + (
                [having] if having is not None else []
            ) + [entry.expression for entry in order_by]:
                for call in collect_aggregates(expression):
                    if call not in aggregates:
                        aggregates.append(call)

            compiler = ExpressionCompiler(schema)
            group_makers = [compiler.compile(expression) for expression in group_by]
            specs: List[AggregateSpec] = []
            for call in aggregates:
                argument = None
                if call.args and not isinstance(call.args[0], ast.Star):
                    argument = compiler.compile(call.args[0])
                specs.append(AggregateSpec(call.name, argument, call.distinct))

            out_columns: List[Column] = []
            for position, expression in enumerate(group_by):
                if isinstance(expression, ast.ColumnRef):
                    source_column = schema[schema.resolve(expression.name, expression.qualifier)]
                    out_columns.append(source_column)
                    mapping[expression] = expression
                else:
                    name = f"_g{position}"
                    out_columns.append(Column(name, self._infer_type(expression, schema)))
                    mapping[expression] = ast.ColumnRef(name)
            for position, call in enumerate(aggregates):
                name = f"_a{position}"
                out_columns.append(Column(name, self._infer_type(call, schema)))
                mapping[call] = ast.ColumnRef(name)

            agg_schema = Schema(out_columns)
            op = AggregateOp(op, agg_schema, group_makers, specs)
            cost += self.cost.aggregate(rows)
            rows = max(1.0, rows * 0.1) if group_by else 1.0
            schema = agg_schema

            if having is not None:
                rewritten = substitute(having, mapping)
                predicate = ExpressionCompiler(schema).compile(rewritten)
                op = FilterOp(op, predicate)
                cost += self.cost.filter(rows)
                rows *= 0.5

        # ORDER BY before projection (can reference pre-projection columns).
        if order_by:
            compiler = ExpressionCompiler(schema)
            sort_makers: List[Tuple[Scalar, bool]] = []
            for entry in order_by:
                expression = substitute(entry.expression, mapping) if mapping else entry.expression
                sort_makers.append((compiler.compile(expression), entry.descending))
            op = SortOp(op, sort_makers)
            cost += self.cost.sort(rows)

        # Projection.
        compiler = ExpressionCompiler(schema)
        makers: List[Scalar] = []
        out_columns = []
        for position, item in enumerate(items):
            expression = substitute(item.expression, mapping) if mapping else item.expression
            makers.append(compiler.compile(expression))
            out_columns.append(
                Column(self._output_name(item, position), self._infer_type(expression, schema))
            )
        out_schema = Schema(out_columns)
        op = ProjectOp(op, out_schema, makers)
        cost += self.cost.project(rows)

        if select.distinct:
            op = DistinctOp(op)
            cost += self.cost.distinct(rows)
            rows = max(1.0, rows * 0.8)

        if select.top is not None:
            count_maker = ExpressionCompiler(Schema(())).compile(select.top)
            op = TopOp(op, count_maker)
            if isinstance(select.top, ast.Literal):
                rows = min(rows, float(select.top.value))
        return _Plan(op, rows, cost).attach()

    def _output_name(self, item: ast.SelectItem, position: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expression, ast.ColumnRef):
            return item.expression.name
        if isinstance(item.expression, ast.FuncCall):
            return item.expression.name.lower()
        return f"col{position + 1}"

    @staticmethod
    def _infer_type(expression: ast.Expression, schema: Schema) -> SqlType:
        """An output column's type (FLOAT where inference cannot tell)."""

        def column_type(ref: ast.ColumnRef) -> Optional[SqlType]:
            index = schema.maybe_resolve(ref.name, ref.qualifier)
            return schema[index].sql_type if index is not None else None

        return ast.infer_type(expression, column_type) or FLOAT

    def _select_output_schema(self, select: ast.Select) -> Schema:
        """Derive a SELECT's output schema without planning it fully."""
        sources: List[_Source] = []
        if select.from_clause is not None:
            sources, _, _ = self._collect_sources(select.from_clause)

        def column_type(ref: ast.ColumnRef) -> Optional[SqlType]:
            for source in sources:
                if ref.qualifier is None or ref.qualifier.lower() == source.alias.lower():
                    found = source.column_types.get(ref.name.lower())
                    if found is not None:
                        return found
            return None

        columns: List[Column] = []
        for item in select.items:
            if isinstance(item.expression, ast.Star):
                qualifier = item.expression.qualifier
                for source in sources:
                    if qualifier is None or qualifier.lower() == source.alias.lower():
                        columns.extend(
                            Column(column, source.column_types.get(column.lower(), FLOAT))
                            for column in source.columns
                        )
                continue
            sql_type = ast.infer_type(item.expression, column_type) or FLOAT
            columns.append(Column(self._output_name(item, len(columns)), sql_type))
        return Schema(columns)

    # ------------------------------------------------------------------
    # block planning: local mix vs full pushdown, dynamic plans
    # ------------------------------------------------------------------

    def _plan_block(
        self,
        select: ast.Select,
        sources: List[_Source],
        namespace: Namespace,
        normalized: Dict[str, Any],
    ) -> Tuple[_Plan, bool, bool, bool]:
        leaves, multi_conjuncts = self._build_leaves(sources, normalized)

        extreme = self._try_index_extreme(select, leaves, normalized)
        if extreme is not None:
            return extreme, False, False, False

        decisions: List[Tuple[_Leaf, _Plan, Optional[_DynamicLeaf], bool]] = []
        for leaf in leaves:
            plan, dynamic, used_view = self._decide_leaf(leaf)
            decisions.append((leaf, plan, dynamic, used_view))

        dynamics = [entry for entry in decisions if entry[2] is not None]
        pulled = dynamics[:MAX_PULLED_UP_GUARDS] if self.pullup_chooseplan else []

        def build_with(forced: Dict[str, str]) -> _Plan:
            leaf_plans: List[Tuple[_Leaf, _Plan]] = []
            for leaf, plan, dynamic, _ in decisions:
                alias = leaf.source.alias.lower()
                if dynamic is not None and alias in forced:
                    if forced[alias] == "view":
                        leaf_plans.append((leaf, self._leaf_view_plan(leaf, dynamic.match)))
                    else:
                        leaf_plans.append((leaf, plan))
                elif dynamic is not None:
                    # A guarded leaf past the pull-up bound: ChoosePlan in place.
                    view_plan = self._leaf_view_plan(leaf, dynamic.match)
                    leaf_plans.append((leaf, self._leaf_chooseplan(view_plan, plan, dynamic)))
                else:
                    leaf_plans.append((leaf, plan))
            joined = self._plan_joins(leaf_plans, multi_conjuncts)
            return self._finish_block(select, joined, normalized)

        is_dynamic = bool(dynamics) and self.enable_dynamic_plans
        if pulled:
            local_plan = self._build_pulled_up(select, pulled, build_with, {})
        else:
            local_plan = build_with({})

        used_view = any(entry[3] for entry in decisions)
        uses_remote_local = any(
            isinstance(node, RemoteQueryOp) for node in local_plan.op.walk()
        )

        # Full-pushdown alternative. The backend-cost estimate charges the
        # backend for its own leaf accesses plus the same join/aggregate
        # superstructure the local plan pays above its leaves.
        chosen_leaf_cost = 0.0
        for leaf, plan, dynamic, _ in decisions:
            if dynamic is not None:
                view_plan = self._leaf_view_plan(leaf, dynamic.match)
                chosen_leaf_cost += (
                    dynamic.frequency * view_plan.cost
                    + (1 - dynamic.frequency) * plan.cost
                )
            else:
                chosen_leaf_cost += plan.cost
        pushdown = self._full_pushdown_plan(select, leaves, local_plan, chosen_leaf_cost)
        if pushdown is not None and not self.force_local_views:
            if pushdown.cost < local_plan.cost:
                return pushdown, True, False, False
        return local_plan, uses_remote_local, used_view, is_dynamic

    def _try_index_extreme(
        self,
        select: ast.Select,
        leaves: List[_Leaf],
        normalized: Dict[str, Any],
    ) -> Optional[_Plan]:
        """Rewrite ``SELECT MIN/MAX(col) FROM t`` into an index-end probe.

        Applies only to an unfiltered single-table query whose one output
        is a MIN or MAX over a locally stored, index-led column.
        """
        if len(leaves) != 1:
            return None
        leaf = leaves[0]
        if (
            leaf.source.kind != "table"
            or leaf.is_remote
            or leaf.conjuncts
            or select.where is not None
            or normalized["group_by"]
            or normalized["having"] is not None
            or normalized["order_by"]
            or select.top is not None
            or select.distinct
        ):
            return None
        items = normalized["items"]
        if len(items) != 1:
            return None
        expression = items[0].expression
        if not (
            isinstance(expression, ast.FuncCall)
            and expression.name in ("MIN", "MAX")
            and len(expression.args) == 1
            and isinstance(expression.args[0], ast.ColumnRef)
        ):
            return None
        column = expression.args[0].name
        storage = self.database.storage_table(leaf.source.table_name)
        index = storage.find_index([column])
        if index is None:
            return None
        name = items[0].alias or expression.name.lower()
        position = leaf.source.column_types.get(column.lower(), FLOAT)
        schema = Schema([Column(name, position)])
        op = IndexExtremeOp(schema, leaf.source.table_name, index.name, expression.name)
        return _Plan(op, 1.0, self.cost.index_seek_startup).attach()

    def _build_pulled_up(
        self,
        select: ast.Select,
        pulled: List[Tuple[_Leaf, _Plan, _DynamicLeaf, bool]],
        build_with,
        forced: Dict[str, str],
    ) -> _Plan:
        """Recursively hoist ChoosePlan above the whole block (Figure 4).

        Each pulled-up guarded leaf doubles the plan: a guard-true branch
        (leaf served by the cached view) and a guard-false branch (leaf
        read from its base location), each optimized independently.
        """
        if not pulled:
            return build_with(forced)
        (leaf, _, dynamic, _), rest = pulled[0], pulled[1:]
        alias = leaf.source.alias.lower()

        view_branch = self._build_pulled_up(
            select, rest, build_with, {**forced, alias: "view"}
        )
        base_branch = self._build_pulled_up(
            select, rest, build_with, {**forced, alias: "base"}
        )
        return self._leaf_chooseplan(view_branch, base_branch, dynamic)

    def _full_pushdown_plan(
        self,
        select: ast.Select,
        leaves: List[_Leaf],
        local_plan: _Plan,
        chosen_leaf_cost: Optional[float] = None,
    ) -> Optional[_Plan]:
        """Ship the entire query block to the backend as one SQL text."""
        server = self.database.backend_server
        if server is None or self.assume_all_local:
            return None
        for leaf in leaves:
            if leaf.source.kind == "derived":
                if not self._remote_shippable(leaf.source.subselect):
                    return None
                continue
            if leaf.source.server is not None and leaf.source.server != server:
                return None
            if not self._exists_on_backend(leaf.source.table_name):
                return None

        stripped = replace(select, freshness=None)
        sql_text = format_statement(stripped)
        schema = local_plan.op.schema
        backend_plan = self._backend_estimate(stripped)
        if backend_plan is not None:
            rows = backend_plan.estimated_rows
            backend_cost = backend_plan.estimated_cost
        else:
            rows = local_plan.rows
            backend_cost = self._backend_block_cost(leaves, local_plan, chosen_leaf_cost)
        cost = self.cost.remote(backend_cost) + self.cost.data_transfer(
            rows, schema.row_width
        )
        op = RemoteQueryOp(schema, server, sql_text)
        return _Plan(op, rows, cost).attach()

    def _backend_estimate(self, select: ast.Select) -> Optional[PlannedStatement]:
        """Locally estimate what the query costs when run at the backend.

        Plans the statement with an ``assume_all_local`` optimizer against
        the shadowed catalog/statistics — the paper's local-optimization
        strategy for costing remote subexpressions without round trips.
        """
        if self.assume_all_local:
            return None
        cached = self._backend_estimator_cache
        if cached is None or cached[0] != self.database.version:
            estimator = Optimizer(
                self.database,
                cost_model=self.cost,
                enable_dynamic_plans=False,
                allow_mixed_results=False,
                assume_all_local=True,
            )
            self._backend_estimator_cache = (self.database.version, estimator)
        else:
            estimator = cached[1]
        try:
            return self._backend_estimator_cache[1].plan_select(select)
        except Exception:
            return None

    def _backend_block_cost(
        self,
        leaves: List[_Leaf],
        local_plan: _Plan,
        chosen_leaf_cost: Optional[float] = None,
    ) -> float:
        """Rough cost of executing the block wholly on the backend.

        Leaf accesses are costed with backend formulas (no transfer, no
        penalty); the join/aggregate superstructure above the leaves is
        the same work wherever it runs, so it is approximated by the local
        plan's cost minus the cost of the leaf plans it actually chose.
        """
        leaf_backend_cost = 0.0
        leaf_local_cost = 0.0
        for leaf in leaves:
            if leaf.source.kind == "derived":
                continue
            backend = self._estimate_backend_access(leaf, leaf.conjuncts)
            leaf_backend_cost += backend
            if chosen_leaf_cost is None:
                if leaf.is_remote:
                    estimator = leaf.estimator or self._estimator(None)
                    selectivity = (
                        estimator.selectivity(leaf.conjuncts) if leaf.conjuncts else 1.0
                    )
                    out_rows = leaf.base_rows * selectivity
                    leaf_local_cost += self.cost.remote(backend) + self.cost.data_transfer(
                        out_rows, leaf.schema.row_width
                    )
                else:
                    leaf_local_cost += backend
        if chosen_leaf_cost is not None:
            leaf_local_cost = chosen_leaf_cost
        superstructure = max(0.0, local_plan.cost - leaf_local_cost)
        return leaf_backend_cost + superstructure

    def _exists_on_backend(self, object_name: str) -> bool:
        """A shadowed/base object exists on the backend unless cached-only."""
        view = self.database.catalog.maybe_view(object_name)
        if view is not None and view.cached:
            return False
        return self.database.catalog.resolve_object(object_name) is not None

    def _remote_shippable(self, select: ast.Select) -> bool:
        if select.from_clause is None:
            return True
        sources, _, _ = self._collect_sources(select.from_clause)
        for source in sources:
            if source.kind == "derived":
                if not self._remote_shippable(source.subselect):
                    return False
            elif not self._exists_on_backend(source.table_name):
                return False
        return True

    # ------------------------------------------------------------------
    # syntactic fallback (outer joins)
    # ------------------------------------------------------------------

    def _plan_syntactic(
        self,
        select: ast.Select,
        sources: List[_Source],
        namespace: Namespace,
        normalized: Dict[str, Any],
    ) -> Tuple[_Plan, bool, bool]:
        """Plan outer-join queries following the written join order.

        Predicates stay at the join/WHERE level (no pushdown) to preserve
        outer-join semantics; leaves use unconditional view matches only
        (under a bounded statement, behind a leaf-level currency guard).
        """
        leaves, _ = self._build_leaves_syntactic(sources, normalized)
        leaf_by_alias = {leaf.source.alias.lower(): leaf for leaf in leaves}
        used_view = False

        def plan_ref(ref: ast.TableRef) -> Tuple[PhysicalOperator, float, float]:
            nonlocal used_view
            if isinstance(ref, ast.JoinRef):
                left_op, left_rows, left_cost = plan_ref(ref.left)
                right_op, right_rows, right_cost = plan_ref(ref.right)
                combined = left_op.schema.concat(right_op.schema)
                predicate = None
                if ref.condition is not None:
                    qualified = qualify_expression(ref.condition, namespace)
                    predicate = ExpressionCompiler(combined).compile(qualified)
                op = NestedLoopJoinOp(left_op, right_op, predicate, kind=ref.kind)
                rows = max(1.0, left_rows * max(1.0, right_rows) * (0.1 if predicate else 1.0))
                if ref.kind == "LEFT":
                    rows = max(rows, left_rows)
                cost = left_cost + right_cost + self.cost.nested_loop_join(left_rows, right_rows)
                return op, rows, cost
            alias = (
                ref.alias or ref.object_name if isinstance(ref, ast.TableName) else ref.alias
            )
            leaf = leaf_by_alias[alias.lower()]
            # No conjunct is pushed down on this path, so a view serves a
            # leaf only unconditionally — or behind its currency guard.
            plan, dynamic, leaf_used_view = self._decide_leaf(leaf)
            if dynamic is not None:
                view_plan = self._leaf_view_plan(leaf, dynamic.match)
                plan = self._leaf_chooseplan(view_plan, plan, dynamic)
            used_view = used_view or leaf_used_view
            return plan.op, plan.rows, plan.cost

        op, rows, cost = plan_ref(select.from_clause)
        if select.where is not None:
            qualified = qualify_expression(select.where, namespace)
            predicate = ExpressionCompiler(op.schema).compile(qualified)
            op = FilterOp(op, predicate)
            cost += self.cost.filter(rows)
            rows *= 0.3
        finished = self._finish_block(select, _Plan(op, rows, cost), normalized)
        uses_remote = any(isinstance(node, RemoteQueryOp) for node in finished.op.walk())
        return finished, uses_remote, used_view

    def _build_leaves_syntactic(
        self, sources: List[_Source], normalized: Dict[str, Any]
    ) -> Tuple[List[_Leaf], List[ast.Expression]]:
        """Leaves for the syntactic path: no pushed conjuncts."""
        leaves, multi = self._build_leaves(sources, normalized)
        for leaf in leaves:
            leaf.conjuncts = []
        return leaves, multi

    # ------------------------------------------------------------------
    # no-FROM SELECT
    # ------------------------------------------------------------------

    def _plan_values(self, select: ast.Select) -> _Plan:
        blank = ExpressionCompiler(Schema(()))
        makers = [blank.compile(item.expression) for item in select.items]
        columns = [
            Column(self._output_name(item, position), self._infer_type(item.expression, Schema(())))
            for position, item in enumerate(select.items)
        ]
        op: PhysicalOperator = ValuesOp(Schema(columns), [makers])
        if select.where is not None:
            predicate = blank.compile(select.where)
            op = FilterOp(op, predicate)
        return _Plan(op, 1.0, 1.0).attach()


@dataclass(frozen=True)
class _FakeIndexDef:
    """Stand-in IndexDef for a primary key without an explicit index row."""

    columns: Tuple[str, ...]
    name: str = "_pk"
    unique: bool = True
    clustered: bool = True


class _RelabelOp(PhysicalOperator):
    """Pass-through operator that re-labels its child's schema.

    Used to re-qualify a derived table's output columns under its alias
    without copying rows.
    """

    def __init__(self, child: PhysicalOperator, schema: Schema):
        super().__init__(schema, [child])

    def execute_batches(self, ctx):
        return self.children[0].execute_batches(ctx)

    def describe(self) -> str:
        return f"Relabel({', '.join(c.qualified_name for c in self.schema)})"
