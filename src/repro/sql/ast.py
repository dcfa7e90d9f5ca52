"""AST node classes for the T-SQL subset.

Nodes are plain dataclasses. Expression nodes and statement nodes share a
small base so visitors (binder, evaluator, formatter) can dispatch on type.
Table names carry up to four dot-separated parts, matching SQL Server's
``server.database.schema.object`` linked-server naming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.common.types import (
    BIGINT,
    BOOLEAN,
    DATETIME,
    FLOAT,
    INT,
    VARCHAR,
    SqlType,
    check_arithmetic,
    common_type,
    comparable,
    incomparable,
    is_string,
)
from repro.errors import TypeCheckError
from repro.sql.lift import marker_type


class Node:
    """Base class for every AST node."""


class Expression(Node):
    """Base class for expression nodes."""


class Statement(Node):
    """Base class for statement nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, or NULL (``value is None``)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A possibly qualified column reference like ``c.name``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Parameter(Expression):
    """A run-time parameter or local variable marker, ``@name``."""

    name: str


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    qualifier: Optional[str] = None


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operation: arithmetic, comparison, AND/OR."""

    op: str  # one of + - * / % = <> < <= > >= AND OR
    left: Expression
    right: Expression


@dataclass(frozen=True)
class UnaryOp(Expression):
    """NOT or unary minus."""

    op: str  # "NOT" or "-"
    operand: Expression


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (value, ...)``."""

    operand: Expression
    items: Tuple[Expression, ...]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False


@dataclass(frozen=True)
class CaseWhen(Expression):
    """Searched CASE expression."""

    whens: Tuple[Tuple[Expression, Expression], ...]
    else_result: Optional[Expression] = None


@dataclass(frozen=True)
class FuncCall(Expression):
    """A function call: aggregate (COUNT/SUM/AVG/MIN/MAX) or scalar."""

    name: str  # uppercased
    args: Tuple[Expression, ...]
    distinct: bool = False

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass(frozen=True)
class Exists(Expression):
    """``[NOT] EXISTS (SELECT ...)``."""

    subquery: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """A parenthesised subquery used as a scalar value."""

    subquery: "Select"


# ---------------------------------------------------------------------------
# Table references
# ---------------------------------------------------------------------------


class TableRef(Node):
    """Base class for FROM-clause items."""


@dataclass(frozen=True)
class TableName(TableRef):
    """A (possibly multi-part) table or view name with an optional alias.

    ``parts`` is 1-4 names; four parts means
    ``linked_server.database.schema.object``.
    """

    parts: Tuple[str, ...]
    alias: Optional[str] = None

    @property
    def object_name(self) -> str:
        return self.parts[-1]

    @property
    def server(self) -> Optional[str]:
        """The linked-server part when the name has four parts."""
        if len(self.parts) == 4:
            return self.parts[0]
        return None

    @property
    def binding_name(self) -> str:
        """The name other clauses use to refer to this table."""
        return self.alias or self.object_name

    def __str__(self) -> str:
        name = ".".join(self.parts)
        return f"{name} AS {self.alias}" if self.alias else name


@dataclass(frozen=True)
class DerivedTable(TableRef):
    """A parenthesised subquery in FROM, with a mandatory alias."""

    select: "Select"
    alias: str


@dataclass(frozen=True)
class JoinRef(TableRef):
    """An explicit join between two table references."""

    kind: str  # INNER, LEFT, CROSS
    left: TableRef
    right: TableRef
    condition: Optional[Expression] = None  # None only for CROSS


# ---------------------------------------------------------------------------
# SELECT machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem(Node):
    """One select-list entry: an expression, optional alias, optional
    T-SQL assignment target (``SELECT @x = expr``)."""

    expression: Expression
    alias: Optional[str] = None
    target_parameter: Optional[str] = None


@dataclass(frozen=True)
class OrderItem(Node):
    """One ORDER BY entry."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class FreshnessSpec(Node):
    """The paper's proposed freshness clause: result may be this stale."""

    max_staleness_seconds: float


@dataclass(frozen=True)
class Select(Statement):
    """A SELECT statement (also used as a subquery body)."""

    items: Tuple[SelectItem, ...]
    from_clause: Optional[TableRef] = None
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    top: Optional[Expression] = None
    distinct: bool = False
    freshness: Optional[FreshnessSpec] = None


@dataclass(frozen=True)
class Explain(Statement):
    """``EXPLAIN <select>`` — return the optimizer's plan as text rows."""

    statement: "Select"
    costs: bool = False  # EXPLAIN WITH COSTS


@dataclass(frozen=True)
class UnionAll(Statement):
    """``select UNION ALL select [UNION ALL ...]`` (bag union).

    Branch select lists must have equal arity; the first branch names the
    output columns, as in T-SQL.
    """

    branches: Tuple[Select, ...]


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Insert(Statement):
    """INSERT ... VALUES or INSERT ... SELECT."""

    table: TableName
    columns: Tuple[str, ...] = ()
    rows: Tuple[Tuple[Expression, ...], ...] = ()
    select: Optional[Select] = None


@dataclass(frozen=True)
class Update(Statement):
    """UPDATE table SET col = expr, ... [WHERE]."""

    table: TableName
    assignments: Tuple[Tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Delete(Statement):
    """DELETE FROM table [WHERE]."""

    table: TableName
    where: Optional[Expression] = None


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef(Node):
    """A column definition inside CREATE TABLE."""

    name: str
    sql_type: SqlType
    nullable: bool = True
    primary_key: bool = False
    default: Optional[Expression] = None


@dataclass(frozen=True)
class ForeignKeyDef(Node):
    """A table-level FOREIGN KEY constraint."""

    columns: Tuple[str, ...]
    ref_table: str
    ref_columns: Tuple[str, ...]


@dataclass(frozen=True)
class CreateTable(Statement):
    """CREATE TABLE with column and table-level constraints."""

    name: str
    columns: Tuple[ColumnDef, ...]
    primary_key: Tuple[str, ...] = ()
    foreign_keys: Tuple[ForeignKeyDef, ...] = ()


@dataclass(frozen=True)
class CreateIndex(Statement):
    """CREATE [UNIQUE] [CLUSTERED] INDEX name ON table (cols)."""

    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool = False
    clustered: bool = False


@dataclass(frozen=True)
class CreateView(Statement):
    """CREATE [MATERIALIZED|CACHED] VIEW name AS select.

    ``cached`` marks MTCache cached views; creating one on a cache server
    automatically provisions a replication subscription.
    """

    name: str
    select: Select
    materialized: bool = False
    cached: bool = False


@dataclass(frozen=True)
class ProcedureParam(Node):
    """A stored-procedure parameter declaration."""

    name: str
    sql_type: SqlType
    default: Optional[Expression] = None


@dataclass(frozen=True)
class CreateProcedure(Statement):
    """CREATE PROCEDURE name @p type, ... AS BEGIN body END."""

    name: str
    params: Tuple[ProcedureParam, ...]
    body: Tuple[Statement, ...]


@dataclass(frozen=True)
class DropObject(Statement):
    """DROP TABLE/INDEX/VIEW/PROCEDURE name."""

    kind: str  # TABLE, INDEX, VIEW, PROCEDURE
    name: str


@dataclass(frozen=True)
class Grant(Statement):
    """GRANT SELECT ON object TO principal (simplified permission model)."""

    permission: str
    object_name: str
    principal: str


# ---------------------------------------------------------------------------
# Procedural statements (T-SQL control flow)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Declare(Statement):
    """DECLARE @name type [= expr]."""

    name: str
    sql_type: SqlType
    initial: Optional[Expression] = None


@dataclass(frozen=True)
class SetVariable(Statement):
    """SET @name = expr."""

    name: str
    value: Expression


@dataclass(frozen=True)
class IfStatement(Statement):
    """IF cond BEGIN ... END [ELSE BEGIN ... END]."""

    condition: Expression
    then_body: Tuple[Statement, ...]
    else_body: Tuple[Statement, ...] = ()


@dataclass(frozen=True)
class WhileStatement(Statement):
    """WHILE cond BEGIN ... END."""

    condition: Expression
    body: Tuple[Statement, ...]


@dataclass(frozen=True)
class ReturnStatement(Statement):
    """RETURN [expr]."""

    value: Optional[Expression] = None


@dataclass(frozen=True)
class PrintStatement(Statement):
    """PRINT expr (diagnostics only)."""

    value: Expression


@dataclass(frozen=True)
class Execute(Statement):
    """EXEC proc [@p = expr | expr, ...]; proc may be multi-part."""

    procedure: Tuple[str, ...]
    arguments: Tuple[Tuple[Optional[str], Expression], ...] = ()


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeginTransaction(Statement):
    """BEGIN TRANSACTION."""


@dataclass(frozen=True)
class CommitTransaction(Statement):
    """COMMIT [TRANSACTION]."""


@dataclass(frozen=True)
class RollbackTransaction(Statement):
    """ROLLBACK [TRANSACTION]."""


def walk_expression(expression: Expression):
    """Yield ``expression`` and every expression nested beneath it."""
    stack = [expression]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BinaryOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, IsNull):
            stack.append(node.operand)
        elif isinstance(node, InList):
            stack.append(node.operand)
            stack.extend(node.items)
        elif isinstance(node, InSubquery):
            stack.append(node.operand)
        elif isinstance(node, Between):
            stack.extend((node.operand, node.low, node.high))
        elif isinstance(node, Like):
            stack.extend((node.operand, node.pattern))
        elif isinstance(node, CaseWhen):
            for condition, result in node.whens:
                stack.extend((condition, result))
            if node.else_result is not None:
                stack.append(node.else_result)
        elif isinstance(node, FuncCall):
            stack.extend(node.args)


def expression_parameters(expression: Expression) -> List[str]:
    """Return the names of all ``@parameters`` referenced by an expression."""
    return [
        node.name for node in walk_expression(expression) if isinstance(node, Parameter)
    ]


def expression_columns(expression: Expression) -> List[ColumnRef]:
    """Return all column references in an expression."""
    return [node for node in walk_expression(expression) if isinstance(node, ColumnRef)]


#: Scalar and aggregate functions whose result type does not depend on
#: their arguments; the ones listed under None take their first argument's.
_FUNCTION_TYPES = {
    **dict.fromkeys(("LEN", "CHARINDEX", "YEAR", "MONTH", "DAY"), INT),
    **dict.fromkeys(("UPPER", "LOWER", "LTRIM", "RTRIM", "SUBSTRING"), VARCHAR(None)),
    **dict.fromkeys(("SUM", "MIN", "MAX", "ABS", "ROUND", "FLOOR", "CEILING"), None),
    "COUNT": BIGINT,
    "AVG": FLOAT,
    "STALENESS": FLOAT,
    "GETDATE": DATETIME,
}
_BOOLEAN_OPERATORS = frozenset({"=", "<>", "<", "<=", ">", ">=", "AND", "OR", "NOT"})
_PYTHON_TYPES = {bool: BOOLEAN, int: INT, float: FLOAT, str: VARCHAR(None)}


def infer_type(
    expression: Expression,
    column_type: Callable[[ColumnRef], Optional[SqlType]],
    parameter_type: Callable[[str], Optional[SqlType]] = lambda name: None,
) -> Optional[SqlType]:
    """The static type of ``expression``, or None where it cannot be told.

    The one inference over the expression type system
    (:func:`~repro.common.types.common_type` is its widening rule): the
    planner's output schemas, ``derive_schema`` and :func:`check_types`
    all call it, each supplying how a column reference — and, for the type
    check, a lifted literal's marker — resolves in its own scope.
    """

    def first_known(nodes) -> Optional[SqlType]:
        return next(filter(None, map(infer, nodes)), None)

    def infer(node: Expression) -> Optional[SqlType]:
        if isinstance(node, Literal):
            return _PYTHON_TYPES.get(type(node.value))
        if isinstance(node, ColumnRef):
            return column_type(node)
        if isinstance(node, Parameter):
            return parameter_type(node.name)
        if isinstance(node, (IsNull, InList, InSubquery, Between, Like, Exists)):
            return BOOLEAN
        if isinstance(node, (UnaryOp, BinaryOp)):
            if node.op in _BOOLEAN_OPERATORS:
                return BOOLEAN
            if isinstance(node, UnaryOp):
                return infer(node.operand)
            left, right = infer(node.left), infer(node.right)
            try:
                return None if left is None or right is None else common_type(left, right)
            except TypeCheckError:
                return None
        if isinstance(node, FuncCall):
            if node.name in ("COALESCE", "ISNULL"):
                return first_known(node.args)
            if node.name not in _FUNCTION_TYPES:
                return None
            known = _FUNCTION_TYPES[node.name]
            if known is not None and not is_string(known):
                return known
            argument = infer(node.args[0]) if node.args else None
            if known is None or (argument is not None and is_string(argument)):
                return argument  # MAX(x) is x's type; UPPER(VARCHAR(40)) keeps its length
            return known
        if isinstance(node, CaseWhen):
            results = [result for _, result in node.whens]
            return first_known(results + [node.else_result or Literal(None)])
        return None

    return infer(expression)


_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})
_ARITHMETIC = frozenset({"+", "-", "*", "/", "%"})


def check_types(
    expression: Expression, column_type: Callable[[ColumnRef], Optional[SqlType]]
) -> None:
    """Raise :class:`TypeCheckError` where ``expression`` compares (``=``
    … ``>=``, ``BETWEEN``) or computes with operands whose static types
    the engine cannot combine at run time (:func:`comparable`,
    :func:`check_arithmetic`). An operand whose type cannot be told passes;
    a parameter's type is its lifted literal's, if it is one.
    Subqueries are left to the caller, which knows their scope."""

    def infer(node: Expression) -> Optional[SqlType]:
        return infer_type(node, column_type, marker_type)

    for node in walk_expression(expression):
        if isinstance(node, Between):
            pairs = ((node.operand, node.low), (node.operand, node.high))
        elif isinstance(node, BinaryOp) and node.op in _COMPARISONS:
            pairs = ((node.left, node.right),)
        elif isinstance(node, BinaryOp) and node.op in _ARITHMETIC:
            left, right = infer(node.left), infer(node.right)
            if left is not None and right is not None:
                check_arithmetic(node.op, left, right)
            continue
        else:
            continue
        for left_operand, right_operand in pairs:
            left, right = infer(left_operand), infer(right_operand)
            if left is not None and right is not None and not comparable(left.kind, right.kind):
                raise incomparable(left.kind, right.kind)


def walk_statement_expressions(statement: Statement):
    """Yield every expression anywhere in a statement.

    Unlike :func:`walk_expression`, this descends into subqueries
    (``IN (SELECT ...)``, ``EXISTS``, scalar subqueries), derived tables,
    UNION ALL branches and procedure/control-flow bodies — so parameter
    and column collection sees the whole statement, not just one level.
    """
    pending: List[Statement] = [statement]

    def deep(expression: Expression):
        for node in walk_expression(expression):
            yield node
            if isinstance(node, (InSubquery, Exists, ScalarSubquery)):
                pending.append(node.subquery)

    def table_refs(ref: Optional[TableRef]):
        if ref is None:
            return
        if isinstance(ref, JoinRef):
            if ref.condition is not None:
                yield from deep(ref.condition)
            yield from table_refs(ref.left)
            yield from table_refs(ref.right)
        elif isinstance(ref, DerivedTable):
            pending.append(ref.select)

    while pending:
        node = pending.pop()
        if isinstance(node, Select):
            for item in node.items:
                yield from deep(item.expression)
            if node.top is not None:
                yield from deep(node.top)
            yield from table_refs(node.from_clause)
            if node.where is not None:
                yield from deep(node.where)
            for expression in node.group_by:
                yield from deep(expression)
            if node.having is not None:
                yield from deep(node.having)
            for order in node.order_by:
                yield from deep(order.expression)
        elif isinstance(node, UnionAll):
            pending.extend(node.branches)
        elif isinstance(node, Explain):
            pending.append(node.statement)
        elif isinstance(node, Insert):
            for row in node.rows:
                for expression in row:
                    yield from deep(expression)
            if node.select is not None:
                pending.append(node.select)
        elif isinstance(node, Update):
            for _, expression in node.assignments:
                yield from deep(expression)
            if node.where is not None:
                yield from deep(node.where)
        elif isinstance(node, Delete):
            if node.where is not None:
                yield from deep(node.where)
        elif isinstance(node, Declare):
            if node.initial is not None:
                yield from deep(node.initial)
        elif isinstance(node, SetVariable):
            yield from deep(node.value)
        elif isinstance(node, IfStatement):
            yield from deep(node.condition)
            pending.extend(node.then_body)
            pending.extend(node.else_body)
        elif isinstance(node, WhileStatement):
            yield from deep(node.condition)
            pending.extend(node.body)
        elif isinstance(node, (ReturnStatement, PrintStatement)):
            if getattr(node, "value", None) is not None:
                yield from deep(node.value)
        elif isinstance(node, Execute):
            for _, expression in node.arguments:
                yield from deep(expression)
        elif isinstance(node, CreateView):
            pending.append(node.select)
        elif isinstance(node, CreateProcedure):
            pending.extend(node.body)


def statement_parameters(statement: Statement) -> List[str]:
    """Return the distinct ``@parameter`` names a statement references,
    in first-use order, descending into subqueries and nested bodies."""
    seen = []
    for node in walk_statement_expressions(statement):
        if isinstance(node, Parameter) and node.name not in seen:
            seen.append(node.name)
    return seen
