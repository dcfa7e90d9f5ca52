"""Where a statement goes: the sharded tier's one routing decision.

:func:`decide` is the only place that knows what makes a statement a
**key**, a **scatter** or a **backend** statement. The router asks it
per statement text, the deployment asks it which procedures to copy to
the shards (:func:`procedure_routes`), and ``python -m repro analyze``
prints the same table. Nothing is declared per procedure:

* a ``SELECT`` naming only the policy's shadowed tables (subqueries
  included) with an equality on the one partitioned table's key routes
  by **key**;
* one that :func:`~repro.sharding.scatter.decompose` can split
  **scatters** — a scan, or a join of co-partitioned tables grouped by
  their key (TPC-W's best-seller query);
* an ``EXEC`` of a procedure whose body is a single ``SELECT`` routes
  exactly as that ``SELECT`` would, with the key and parameter sources
  re-bound through the call's arguments;
* everything else — writes, transactions, multi-statement procedures,
  aggregates whose groups span shards, tables no view covers — goes to
  the **backend**, which is always exactly correct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.catalog.objects import ProcedureDef
from repro.engine.locks import named_tables
from repro.optimizer.predicates import split_conjuncts
from repro.sharding.policy import ShardingPolicy
from repro.sharding.scatter import ScatterQuery, _key_reference, _table_names, decompose
from repro.sql import ast

#: A value source for routing keys and procedure arguments: the name of
#: the statement parameter holding the value. The router lifts literals
#: to parameters before it decides, so a constant is a parameter too; a
#: literal that stays in the text (``NULL``, anything off the lifter's
#: safe list) sends the statement to the backend.
Source = str
Arguments = Tuple[Tuple[str, Source], ...]


@dataclass
class Route:
    """Where one statement text goes."""

    kind: str  # "key" | "scatter" | "backend"
    key_source: Optional[Source] = None
    scatter: Optional[ScatterQuery] = None
    # None passes the statement's params through unchanged; otherwise a
    # mapping of procedure-parameter name -> value source.
    param_map: Optional[Arguments] = None
    # The router's per-shard SQL cache: (partitioner version, {shard: sql}).
    shard_sql: Optional[Tuple[int, Dict[str, str]]] = None


BACKEND = Route(kind="backend")


def decide(statement: ast.Statement, policy: ShardingPolicy, catalog: Any) -> Route:
    """The route for one parsed statement against ``catalog``."""
    if isinstance(statement, ast.Select):
        return _decide_select(statement, policy)
    if not isinstance(statement, ast.Execute):
        return BACKEND
    procedure = catalog.maybe_procedure(statement.procedure[-1])
    if procedure is None or len(procedure.body) != 1:
        return BACKEND
    body = procedure.body[0]
    if not isinstance(body, ast.Select):
        return BACKEND
    arguments = _argument_sources(statement, procedure)
    if arguments is None:
        return BACKEND
    route = _decide_select(body, policy)
    if route.kind == "scatter":
        return replace(route, param_map=arguments)
    if route.kind == "key":
        # The body names the key in the procedure's terms; the call says
        # where each procedure parameter's value comes from.
        assert route.key_source is not None
        source = dict(arguments).get(route.key_source.lower())
        if source is not None:
            return Route(kind="key", key_source=source)
    return BACKEND


def procedure_routes(policy: ShardingPolicy, catalog: Any) -> Dict[str, str]:
    """``{procedure name: route kind}`` for every catalog procedure,
    each called with all of its parameters passed by name."""
    routes: Dict[str, str] = {}
    for procedure in catalog.procedures.values():
        arguments = tuple((param.name, ast.Parameter(param.name)) for param in procedure.params)
        call = ast.Execute((procedure.name,), arguments)
        routes[procedure.name] = decide(call, policy, catalog).kind
    return routes


def _decide_select(statement: ast.Select, policy: ShardingPolicy) -> Route:
    tables = _table_names(statement.from_clause)
    if not tables or not all(
        table.object_name.lower() in policy.source_tables
        for table in named_tables(statement)
    ):
        return BACKEND
    key_source = _key_equality(statement, tables, policy)
    if key_source is not None:
        return Route(kind="key", key_source=key_source)
    scatter = decompose(statement, policy.partitions)
    if scatter is not None:
        return Route(kind="scatter", scatter=scatter)
    return BACKEND


def _key_equality(
    statement: ast.Select, tables: List[ast.TableName], policy: ShardingPolicy
) -> Optional[Source]:
    """A ``key = @p`` conjunct on the partition key."""
    partitioned = [
        table for table in tables if table.object_name.lower() in policy.partitions
    ]
    if len(partitioned) != 1:
        return None
    for conjunct in split_conjuncts(statement.where):
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
            continue
        for column, value in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if (
                isinstance(value, ast.Parameter)
                and _key_reference(column, partitioned, policy.partitions) is not None
            ):
                return value.name
    return None


def _argument_sources(
    statement: ast.Execute, procedure: ProcedureDef
) -> Optional[Arguments]:
    """Map procedure parameter names to value sources, or None when the
    call uses expressions the router cannot evaluate client-side."""
    parameter_names = [param.name.lower() for param in procedure.params]
    sources: List[Tuple[str, Source]] = []
    for position, (name, expression) in enumerate(statement.arguments):
        if name is not None:
            target = name.lower()
        elif position < len(parameter_names):
            target = parameter_names[position]
        else:
            return None
        if not isinstance(expression, ast.Parameter):
            return None
        sources.append((target, expression.name))
    return tuple(sources)


def resolve(source: Optional[Source], params: Optional[Dict[str, Any]]) -> Any:
    """The run-time value of a source under a statement's parameters."""
    if source is None:
        return None
    return (params or {}).get(source)


def remap(
    param_map: Optional[Arguments], params: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """The parameters a procedure's body sees for a call's ``params``."""
    if param_map is None:
        return params
    return {name: resolve(source, params) for name, source in param_map}
