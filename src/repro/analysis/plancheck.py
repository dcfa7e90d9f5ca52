"""Plan-invariant verifier (analysis pass 1).

Walks any :class:`~repro.exec.operators.PhysicalOperator` tree produced
by the optimizer and checks the invariants MTCache correctness rests on:

* **Schema agreement** — every parent's output schema must agree with
  its children: pass-through operators (Filter/Sort/Top/Distinct) keep
  the child schema verbatim, joins concatenate left and right, UnionAll
  branches must match in arity, column names and (widening-compatible)
  types, relabels may rename but not change arity or types.
* **DataLocation discipline** — a local operator may not read rows of a
  remote (shadow) table directly; remote data enters a plan only through
  a ``RemoteQueryOp`` DataTransfer boundary, which must be a leaf.
* **ChoosePlan well-formedness** — a ``UnionAllOp(choose_plan=True)``
  must have exactly two branches, each a startup-guarded ``FilterOp``
  whose guard references parameters only, with the two guards mutually
  exclusive and exhaustive (one is the structural negation of the
  other) and branch schemas identical in names.
* **Currency** — under a statement that states a bound (``WITH
  FRESHNESS``), every leaf reading a cached view's storage must sit below
  a startup guard that carries the statement's currency conjunct
  (``STALENESS() <= n``): a plan cached today must not serve the view
  once it is staler than that.
* **Parameter-binding completeness** — every parameter a plan artifact
  references (startup guards, shipped remote SQL) must appear in the
  statement's required-parameter set, and — when bindings are supplied —
  every required parameter must be bound.
* **Catalog resolution** — scan and seek operators must reference
  locally stored tables and existing indexes.

The verifier powers the opt-in checked-execution hook
(``Server(checked_plans=True)``) and the mutation tests.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.common.types import SqlType, common_type
from repro.errors import AnalysisError, SqlError, TypeCheckError
from repro.exec.operators import (
    AggregateOp,
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
from repro.optimizer.planner import PlannedStatement, _RelabelOp
from repro.optimizer.predicates import negate, references_parameters_only, split_conjuncts
from repro.sql import ast as sql_ast
from repro.sql import parse_statements

#: Operators that read rows from local storage by table name.
_STORAGE_OPS = (SeqScanOp, IndexSeekOp, IndexRangeScanOp, IndexExtremeOp, IndexLookupJoinOp)
#: Operators whose output schema must equal their single child's schema.
_PASSTHROUGH_OPS = (FilterOp, SortOp, TopOp, DistinctOp)
#: Binary joins whose output schema is the concatenation of both inputs.
_CONCAT_JOIN_OPS = (NestedLoopJoinOp, HashJoinOp, MergeJoinOp)


def _types_compatible(left: SqlType, right: SqlType) -> bool:
    try:
        common_type(left, right)
    except TypeCheckError:
        return False
    return True


class PlanVerifier:
    """Checks one physical plan against the structural invariants.

    ``database`` enables the DataLocation and catalog checks;
    ``required_parameters`` enables the binding-completeness checks;
    ``currency`` (a bounded statement's guard conjunct) the currency rule;
    ``params`` additionally checks that every required parameter is
    actually bound (checked execution).
    """

    def __init__(
        self,
        database: Optional[Any] = None,
        params: Optional[Dict[str, Any]] = None,
        required_parameters: Optional[Iterable[str]] = None,
        currency: Optional[sql_ast.Expression] = None,
    ):
        self.database = database
        self.params = params
        self.currency = currency
        self.required: Optional[Set[str]] = (
            None if required_parameters is None else set(required_parameters)
        )

    # -- entry point -----------------------------------------------------

    def verify(self, root: PhysicalOperator) -> List[AnalysisError]:
        diagnostics: List[AnalysisError] = []
        referenced: List[Tuple[str, str]] = []  # (parameter, location)
        for op in root.walk():
            self._check_operator(op, self._location(op), diagnostics, referenced)
        self._check_parameters(referenced, diagnostics)
        if self.currency is not None and self.database is not None:
            self._check_currency(root, False, diagnostics)
        return diagnostics

    def _check_currency(
        self, op: PhysicalOperator, guarded: bool, diagnostics: List[AnalysisError]
    ) -> None:
        if isinstance(op, FilterOp) and op.startup_guard is not None:
            guarded = guarded or self.currency in split_conjuncts(op.startup_guard)
        if isinstance(op, _STORAGE_OPS) and not guarded:
            view = self.database.catalog.maybe_view(getattr(op, "table_name", ""))
            if view is not None and view.cached:
                self._error(
                    diagnostics,
                    "currency-guard",
                    f"cached view {view.name!r} is read under a freshness bound "
                    "without a currency guard above it",
                    self._location(op),
                )
        for child in op.children:
            self._check_currency(child, guarded, diagnostics)

    @staticmethod
    def _location(op: PhysicalOperator) -> str:
        text = op.describe()
        return text if len(text) <= 80 else text[:77] + "..."

    def _error(
        self,
        diagnostics: List[AnalysisError],
        rule: str,
        message: str,
        location: str,
    ) -> None:
        diagnostics.append(AnalysisError(rule, message, location=location))

    # -- per-operator checks ---------------------------------------------

    def _check_operator(
        self,
        op: PhysicalOperator,
        location: str,
        diagnostics: List[AnalysisError],
        referenced: List[Tuple[str, str]],
    ) -> None:
        if isinstance(op, _PASSTHROUGH_OPS):
            child = op.children[0]
            if op.schema.columns != child.schema.columns:
                self._error(
                    diagnostics,
                    "schema-passthrough",
                    "pass-through operator output schema differs from its child's",
                    location,
                )
        if isinstance(op, FilterOp) and op.startup_guard is not None:
            if not references_parameters_only(op.startup_guard):
                self._error(
                    diagnostics,
                    "choose-plan",
                    "startup guard references columns; guards must be parameter-only",
                    location,
                )
            for name in sql_ast.expression_parameters(op.startup_guard):
                referenced.append((name, location))
        if isinstance(op, UnionAllOp):
            self._check_union(op, location, diagnostics)
        if isinstance(op, _CONCAT_JOIN_OPS):
            if len(op.children) != 2:
                self._error(
                    diagnostics, "schema-arity", "join must have exactly two inputs", location
                )
            else:
                expected = op.children[0].schema.concat(op.children[1].schema)
                if op.schema.columns != expected.columns:
                    self._error(
                        diagnostics,
                        "schema-arity",
                        "join output schema is not the concatenation of its inputs",
                        location,
                    )
        if isinstance(op, IndexLookupJoinOp):
            expected = op.children[0].schema.concat(op.right_schema)
            if op.schema.columns != expected.columns:
                self._error(
                    diagnostics,
                    "schema-arity",
                    "index-lookup join output schema is not left ++ right_schema",
                    location,
                )
            if len(op.right_positions) != len(op.right_schema):
                self._error(
                    diagnostics,
                    "schema-arity",
                    "right_positions arity differs from right_schema",
                    location,
                )
        if isinstance(op, ProjectOp) and len(op.makers) != len(op.schema):
            self._error(
                diagnostics,
                "schema-arity",
                f"Project computes {len(op.makers)} expressions "
                f"for a {len(op.schema)}-column schema",
                location,
            )
        if isinstance(op, AggregateOp):
            width = len(op.group_makers) + len(op.aggregates)
            if len(op.schema) != width:
                self._error(
                    diagnostics,
                    "schema-arity",
                    f"Aggregate produces {width} values "
                    f"for a {len(op.schema)}-column schema",
                    location,
                )
        if isinstance(op, ValuesOp):
            for makers in op.row_makers:
                if len(makers) != len(op.schema):
                    self._error(
                        diagnostics,
                        "schema-arity",
                        "Values row arity differs from schema",
                        location,
                    )
                    break
        if isinstance(op, _RelabelOp):
            child = op.children[0]
            if len(op.schema) != len(child.schema):
                self._error(
                    diagnostics, "schema-arity", "Relabel changes arity", location
                )
            else:
                for position, (out, src) in enumerate(zip(op.schema, child.schema)):
                    if not _types_compatible(out.sql_type, src.sql_type):
                        self._error(
                            diagnostics,
                            "schema-types",
                            f"Relabel changes column {position + 1} type "
                            f"({src.sql_type} -> {out.sql_type})",
                            location,
                        )
        if isinstance(op, RemoteQueryOp):
            self._check_remote(op, location, diagnostics, referenced)
        if isinstance(op, _STORAGE_OPS):
            self._check_storage(op, location, diagnostics)

    def _check_union(
        self, op: UnionAllOp, location: str, diagnostics: List[AnalysisError]
    ) -> None:
        expected = op.schema
        for branch_no, child in enumerate(op.children, start=1):
            if len(child.schema) != len(expected):
                self._error(
                    diagnostics,
                    "schema-arity",
                    f"UnionAll branch {branch_no} has {len(child.schema)} columns, "
                    f"expected {len(expected)}",
                    location,
                )
                continue
            for position, (out, branch) in enumerate(zip(expected, child.schema)):
                if out.name.lower() != branch.name.lower():
                    self._error(
                        diagnostics,
                        "schema-names",
                        f"UnionAll branch {branch_no} column {position + 1} is named "
                        f"{branch.name!r}, expected {out.name!r}",
                        location,
                    )
                elif not _types_compatible(out.sql_type, branch.sql_type):
                    self._error(
                        diagnostics,
                        "schema-types",
                        f"UnionAll branch {branch_no} column {position + 1} "
                        f"({out.name!r}) has incompatible type "
                        f"{branch.sql_type} vs {out.sql_type}",
                        location,
                    )
        if op.choose_plan:
            self._check_choose_plan(op, location, diagnostics)

    def _check_choose_plan(
        self, op: UnionAllOp, location: str, diagnostics: List[AnalysisError]
    ) -> None:
        guards: List[Optional[sql_ast.Expression]] = []
        for branch_no, child in enumerate(op.children, start=1):
            if not isinstance(child, FilterOp) or child.startup_predicate is None:
                self._error(
                    diagnostics,
                    "choose-plan",
                    f"ChoosePlan branch {branch_no} is not a startup-guarded Filter",
                    location,
                )
                return
            guards.append(child.startup_guard)
        if len(op.children) != 2:
            self._error(
                diagnostics,
                "choose-plan",
                f"ChoosePlan must have exactly two guarded branches, found {len(op.children)}",
                location,
            )
            return
        first, second = guards
        if first is None or second is None:
            self._error(
                diagnostics,
                "choose-plan",
                "ChoosePlan branch carries no guard AST; guard exclusivity is unprovable",
                location,
            )
            return
        if second != negate(first) and first != negate(second):
            self._error(
                diagnostics,
                "choose-plan",
                "ChoosePlan guards are not mutually exclusive and exhaustive "
                "(neither guard is the negation of the other)",
                location,
            )

    def _check_remote(
        self,
        op: RemoteQueryOp,
        location: str,
        diagnostics: List[AnalysisError],
        referenced: List[Tuple[str, str]],
    ) -> None:
        if op.children:
            self._error(
                diagnostics,
                "data-transfer",
                "RemoteQuery must be a leaf: remote subplans travel as SQL text, "
                "not as operator children",
                location,
            )
        if self.database is not None:
            owner = getattr(self.database, "owner_server", None)
            if owner is not None and op.server_name not in owner.linked_servers:
                self._error(
                    diagnostics,
                    "catalog",
                    f"unknown linked server {op.server_name!r}",
                    location,
                )
        try:
            statements = parse_statements(op.sql_text)
        except SqlError as exc:
            self._error(
                diagnostics,
                "data-transfer",
                f"shipped remote SQL does not parse: {exc}",
                location,
            )
            return
        for statement in statements:
            for name in sql_ast.statement_parameters(statement):
                referenced.append((name, location))

    def _check_storage(
        self, op: PhysicalOperator, location: str, diagnostics: List[AnalysisError]
    ) -> None:
        if self.database is None:
            return
        table_name = getattr(op, "table_name", "")
        if self.database.is_remote_table(table_name):
            self._error(
                diagnostics,
                "data-location",
                f"local operator reads remote table {table_name!r} without a "
                "DataTransfer boundary",
                location,
            )
            return
        if not self.database.has_storage(table_name):
            self._error(
                diagnostics,
                "catalog",
                f"no local storage for table {table_name!r}",
                location,
            )
            return
        index_name = getattr(op, "index_name", None)
        if index_name:
            storage = self.database.storage_table(table_name)
            if index_name not in storage.indexes:
                self._error(
                    diagnostics,
                    "catalog",
                    f"unknown index {index_name!r} on table {table_name!r}",
                    location,
                )

    # -- parameter completeness ------------------------------------------

    def _check_parameters(
        self,
        referenced: List[Tuple[str, str]],
        diagnostics: List[AnalysisError],
    ) -> None:
        if self.required is None:
            return
        reported: Set[str] = set()
        for name, location in referenced:
            if name in self.required or name in reported:
                continue
            if self.params is not None and name in self.params:
                continue
            reported.add(name)
            self._error(
                diagnostics,
                "plan-params",
                f"plan references parameter @{name} outside the statement's "
                "required-parameter set",
                location,
            )
        if self.params is not None:
            for name in sorted(self.required - set(self.params)):
                self._error(
                    diagnostics,
                    "plan-params",
                    f"required parameter @{name} is unbound",
                    "parameter bindings",
                )


def verify_plan(
    plan: Union[PlannedStatement, PhysicalOperator],
    database: Optional[Any] = None,
    params: Optional[Dict[str, Any]] = None,
) -> List[AnalysisError]:
    """Verify a plan; returns all diagnostics (empty when clean).

    Accepts either a :class:`PlannedStatement` (enables the
    parameter-completeness checks via its required-parameter set) or a
    bare operator tree.
    """
    if isinstance(plan, PlannedStatement):
        verifier = PlanVerifier(database, params, plan.required_parameters, plan.currency)
        diagnostics = verifier.verify(plan.root)
        if len(plan.schema) != len(plan.root.schema):
            diagnostics.insert(
                0,
                AnalysisError(
                    "schema-arity",
                    "planned statement schema arity differs from the root operator",
                    location="plan root",
                ),
            )
        return diagnostics
    return PlanVerifier(database, params).verify(plan)


def check_plan(
    plan: Union[PlannedStatement, PhysicalOperator],
    database: Optional[Any] = None,
    params: Optional[Dict[str, Any]] = None,
) -> None:
    """Checked execution: raise the first error-severity diagnostic."""
    for diagnostic in verify_plan(plan, database, params):
        if diagnostic.is_error:
            raise diagnostic
