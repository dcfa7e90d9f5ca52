"""Expression compilation: AST → Python closures with SQL semantics.

Expressions compile once per plan against an input :class:`Schema`; the
resulting closures take ``(row, context)`` and return a Python value where
``None`` is SQL NULL. Comparison and boolean operators follow SQL
three-valued logic (``None`` = UNKNOWN); predicates accept a row only when
the compiled closure returns exactly ``True``.

Guard predicates for dynamic plans (paper §5.1) reference only parameters,
so they compile to closures that ignore the row — the FilterOp startup
predicate evaluates them once per execution.

**Batch forms.** Every compiled closure additionally carries a ``batch``
attribute: a function ``(rows, ctx) -> list`` returning one scalar result
per input row (for predicates, a selection vector the batch operators test
element-wise with ``is True``). Batch forms are built at compile time —
never per execution — and live on the closure, so they are cached inside
the plan-cache entry alongside the plan itself and only recompile when a
schema bump invalidates the plan. Where the expression shape allows it the
batch form is a specialized kernel rather than a row loop:

* column references become position reads, literals/parameters are
  hoisted once per chunk;
* comparisons of a column against a hoistable operand pick their
  type-coercion dispatch once per chunk (numeric/string columns compare
  with the raw Python operator; temporal columns parse an ISO string
  operand once, not per row) and fall back to :func:`sql_compare`
  element-wise otherwise;
* AND/OR/NOT combine child selection vectors with Kleene logic;
* constant LIKE patterns compile their regex at closure-build time, and
  non-constant patterns go through a bounded process-wide memo instead of
  recompiling per row.

The generic fallback (``batch_from_scalar``) simply maps the scalar
closure over the chunk, so batch semantics are scalar semantics
row-for-row by construction.
"""

from __future__ import annotations

import datetime
import operator as _operator
import re
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.common.lru import LRUCache
from repro.common.schema import Schema
from repro.common.types import incomparable, is_numeric, is_string, is_temporal, value_kind
from repro.errors import ExecutionError, TypeCheckError
from repro.exec.context import COMPARISON_FAMILY
from repro.sql import ast

Scalar = Callable[[Tuple, "object"], Any]
#: Batch form of a scalar: ``(rows, ctx) -> [value, ...]`` (one per row).
BatchScalar = Callable[[Sequence[Tuple], "object"], List[Any]]


def sql_equal(left: Any, right: Any) -> Optional[bool]:
    """Three-valued ``=``: NULL operands yield UNKNOWN (None)."""
    if left is None or right is None:
        return None
    return _coerce_pair(left, right) == 0


def sql_compare(op: str, left: Any, right: Any) -> Optional[bool]:
    """Three-valued comparison for =, <>, <, <=, >, >=."""
    if left is None or right is None:
        return None
    sign = _coerce_pair(left, right)
    if op == "=":
        return sign == 0
    if op == "<>":
        return sign != 0
    if op == "<":
        return sign < 0
    if op == "<=":
        return sign <= 0
    if op == ">":
        return sign > 0
    if op == ">=":
        return sign >= 0
    raise ExecutionError(f"unknown comparison operator {op!r}")


def in_subquery_linear(value: Any, rows: Sequence[Tuple], negated: bool) -> Optional[bool]:
    """``value [NOT] IN (rows' first column)`` by a ``sql_equal`` scan: the
    definition of the predicate (and the tests' oracle for the set probe),
    executed only where candidates and probe do not share one comparison
    family. ``value`` is not NULL."""
    seen_null = False
    for subrow in rows:
        candidate = subrow[0]
        if candidate is None:
            seen_null = True
            continue
        if sql_equal(value, candidate) is True:
            return not negated
    if seen_null:
        return None
    return negated


def _coerce_pair(left: Any, right: Any) -> int:
    """Return -1/0/1 for left vs right, coercing numerics; a pair the
    comparison rule (:func:`~repro.common.types.comparable`) refuses
    raises its :func:`~repro.common.types.incomparable` error."""
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    # Date/datetime compared against ISO strings (common in generated SQL)
    # — resolve the string side first, then fall through to temporal rules.
    if isinstance(left, datetime.date) and isinstance(right, str):
        right = _parse_temporal(right, left)
    elif isinstance(right, datetime.date) and isinstance(left, str):
        left = _parse_temporal(left, right)
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        if isinstance(left, datetime.datetime) or isinstance(right, datetime.datetime):
            left, right = _as_datetime(left), _as_datetime(right)
        return (left > right) - (left < right)
    raise incomparable(value_kind(left), value_kind(right))


def _as_datetime(value: datetime.date) -> datetime.datetime:
    if isinstance(value, datetime.datetime):
        return value
    return datetime.datetime(value.year, value.month, value.day)


def _parse_temporal(text: str, template: Any) -> Any:
    if isinstance(template, datetime.datetime):
        return datetime.datetime.fromisoformat(text)
    return datetime.date.fromisoformat(text)


def sql_and(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Kleene AND."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: Optional[bool], right: Optional[bool]) -> Optional[bool]:
    """Kleene OR."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: Optional[bool]) -> Optional[bool]:
    """Kleene NOT."""
    if value is None:
        return None
    return not value


def like_to_regex(pattern: str) -> "re.Pattern":
    """Translate a SQL LIKE pattern (% _) into an anchored regex."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.IGNORECASE | re.DOTALL)


#: Process-wide bounded memo of compiled LIKE patterns. Non-constant
#: patterns (column/parameter-valued) hit this instead of recompiling per
#: row; constant patterns bypass it entirely (compiled at closure build).
_like_pattern_memo: LRUCache = LRUCache(256)


def compiled_like_pattern(pattern: str) -> "re.Pattern":
    """Fetch (or build and memoize) the regex for a LIKE pattern."""
    regex = _like_pattern_memo.get(pattern)
    if regex is None:
        regex = like_to_regex(pattern)
        _like_pattern_memo[pattern] = regex
    return regex


def batch_from_scalar(scalar: Scalar) -> BatchScalar:
    """Generic batch form: map the scalar closure over the chunk."""

    def run(rows: Sequence[Tuple], ctx: object) -> List[Any]:
        return [scalar(row, ctx) for row in rows]

    return run


def batch_form(scalar: Scalar) -> BatchScalar:
    """The scalar's batch form, falling back to the generic row map.

    Compiler-produced closures always carry ``.batch``; hand-built makers
    (and test doubles) may not, so batch operators funnel through here.
    """
    existing = getattr(scalar, "batch", None)
    if existing is not None:
        return existing
    return batch_from_scalar(scalar)


def column_maker(position: int) -> Scalar:
    """A Scalar reading one row position, with its batch form attached.

    The planner uses this for pure column-projection makers so the batch
    projection kernel can recognize them (``column_position``) and fuse
    them into a single ``itemgetter``.
    """

    def maker(row: Tuple, ctx: object) -> Any:
        return row[position]

    maker.column_position = position  # type: ignore[attr-defined]
    maker.batch = lambda rows, ctx: [row[position] for row in rows]  # type: ignore[attr-defined]
    return maker


def tuple_kernel(makers: Sequence[Scalar]) -> BatchScalar:
    """Batch kernel producing one tuple per row from a list of makers.

    Used for projections, group keys and hash-join key extraction. When
    every maker is a plain column reference the kernel collapses to an
    ``itemgetter``; otherwise each maker's batch form computes a column
    vector and the vectors are zipped back into rows.
    """
    if not makers:
        # No extractors (e.g. GROUP BY-less aggregation): every row keys
        # to the empty tuple, same as the scalar ``tuple()`` over nothing.
        return lambda rows, ctx: [()] * len(rows)
    positions = [getattr(maker, "column_position", None) for maker in makers]
    if all(position is not None for position in positions):
        if len(positions) == 1:
            first = positions[0]
            return lambda rows, ctx: [(row[first],) for row in rows]
        getter = _operator.itemgetter(*positions)
        return lambda rows, ctx: [getter(row) for row in rows]
    forms = [batch_form(maker) for maker in makers]

    def run(rows: Sequence[Tuple], ctx: object) -> List[Any]:
        if not rows:
            return []
        columns = [form(rows, ctx) for form in forms]
        return list(zip(*columns))

    return run


#: Python comparators for the batch fast path (dispatch picked per chunk).
_COMPARATORS = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


#: Mirror of each comparator for normalizing ``const OP col`` to
#: ``col OP' const`` in the batch fast path (``5 < col`` ≡ ``col > 5``).
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _is_row_independent(fn: Scalar) -> bool:
    """True when the closure ignores the row (literal or parameter)."""
    return hasattr(fn, "constant_value") or hasattr(fn, "parameter_name")


class ExpressionCompiler:
    """Compiles AST expressions to closures over a fixed input schema."""

    def __init__(self, schema: Optional[Schema] = None):
        self.schema = schema or Schema(())

    def compile(self, expression: ast.Expression) -> Scalar:
        """Compile a scalar expression (batch form always attached)."""
        method = getattr(self, f"_compile_{type(expression).__name__.lower()}", None)
        if method is None:
            raise ExecutionError(
                f"cannot compile expression of type {type(expression).__name__}"
            )
        fn = method(expression)
        if not hasattr(fn, "batch"):
            fn.batch = batch_from_scalar(fn)
        return fn

    # -- leaves ---------------------------------------------------------------

    def _compile_literal(self, node: ast.Literal) -> Scalar:
        value = node.value

        def literal(row, ctx):
            return value

        literal.constant_value = value
        literal.batch = lambda rows, ctx: [value] * len(rows)
        return literal

    def _compile_columnref(self, node: ast.ColumnRef) -> Scalar:
        position = self.schema.resolve(node.name, node.qualifier)
        return column_maker(position)

    def _compile_parameter(self, node: ast.Parameter) -> Scalar:
        name = node.name

        def parameter(row, ctx):
            return ctx.param(name)

        parameter.parameter_name = name

        def batch(rows, ctx):
            value = ctx.param(name)
            return [value] * len(rows)

        parameter.batch = batch
        return parameter

    def _compile_star(self, node: ast.Star) -> Scalar:
        raise ExecutionError("'*' is only valid in select lists and COUNT(*)")

    # -- operators ---------------------------------------------------------------

    def _compile_binaryop(self, node: ast.BinaryOp) -> Scalar:
        left = self.compile(node.left)
        right = self.compile(node.right)
        op = node.op
        if op in ("AND", "OR"):
            combine = sql_and if op == "AND" else sql_or

            def logical(row, ctx):
                return combine(_as_bool(left(row, ctx)), _as_bool(right(row, ctx)))

            left_batch = batch_form(left)
            right_batch = batch_form(right)

            def logical_batch(rows, ctx):
                # Both sides evaluate eagerly in the scalar form too, so combining
                # whole child vectors preserves semantics exactly.
                return [
                    combine(_as_bool(lhs), _as_bool(rhs))
                    for lhs, rhs in zip(left_batch(rows, ctx), right_batch(rows, ctx))
                ]

            logical.batch = logical_batch
            return logical
        if op in _COMPARATORS:
            def compare(row, ctx):
                return sql_compare(op, left(row, ctx), right(row, ctx))

            compare.batch = self._batch_compare(op, left, right)
            return compare
        if op in ("+", "-", "*", "/", "%"):
            return _compile_arithmetic(op, left, right)
        raise ExecutionError(f"unknown binary operator {op!r}")

    def _batch_compare(self, op: str, left: Scalar, right: Scalar) -> BatchScalar:
        """Batch form of a comparison, specializing column-vs-hoistable.

        When one side is a plain column reference and the other is
        row-independent (literal or parameter), the hoistable side is
        evaluated once per chunk and the coercion dispatch is chosen once
        from the column's declared type plus the hoisted value's runtime
        type — the inner loop then runs a raw Python comparator. Any row
        whose value falls outside the specialized case (or any shape the
        specializer does not recognize) drops to element-wise
        :func:`sql_compare`, so results match the scalar form exactly.
        """
        left_position = getattr(left, "column_position", None)
        right_position = getattr(right, "column_position", None)
        if left_position is not None and _is_row_independent(right):
            position, hoisted, effective_op = left_position, right, op
        elif right_position is not None and _is_row_independent(left):
            position, hoisted, effective_op = right_position, left, _FLIPPED[op]
        else:
            left_batch = batch_form(left)
            right_batch = batch_form(right)

            def generic(rows, ctx):
                return [
                    sql_compare(op, lhs, rhs)
                    for lhs, rhs in zip(left_batch(rows, ctx), right_batch(rows, ctx))
                ]

            return generic

        columns = self.schema.columns
        sql_type = columns[position].sql_type if position < len(columns) else None
        numeric = sql_type is not None and is_numeric(sql_type)
        stringy = sql_type is not None and is_string(sql_type)
        temporal = sql_type is not None and is_temporal(sql_type)
        comparator = _COMPARATORS[effective_op]

        def fast(rows, ctx):
            if not rows:
                return []
            other = hoisted((), ctx)
            if other is None:
                return [None] * len(rows)
            if isinstance(other, bool):
                other = int(other)
            if numeric and isinstance(other, (int, float)):
                return [
                    None if (v := row[position]) is None
                    else (comparator(v, other) if isinstance(v, (int, float))
                          else sql_compare(effective_op, v, other))
                    for row in rows
                ]
            if stringy and isinstance(other, str):
                return [
                    None if (v := row[position]) is None
                    else (comparator(v, other) if isinstance(v, str)
                          else sql_compare(effective_op, v, other))
                    for row in rows
                ]
            if temporal and isinstance(other, str):
                sample = next(
                    (row[position] for row in rows if row[position] is not None), None
                )
                if isinstance(sample, (datetime.date, datetime.datetime)):
                    parsed = _parse_temporal(other, sample)
                    sample_type = type(sample)
                    return [
                        None if (v := row[position]) is None
                        else (comparator(v, parsed) if type(v) is sample_type
                              else sql_compare(effective_op, v, other))
                        for row in rows
                    ]
            return [sql_compare(effective_op, row[position], other) for row in rows]

        return fast

    def _compile_unaryop(self, node: ast.UnaryOp) -> Scalar:
        operand = self.compile(node.operand)
        operand_batch = batch_form(operand)
        if node.op == "NOT":
            def negation(row, ctx):
                return sql_not(_as_bool(operand(row, ctx)))

            negation.batch = lambda rows, ctx: [
                sql_not(_as_bool(v)) for v in operand_batch(rows, ctx)
            ]
            return negation
        if node.op == "-":
            def negate(row, ctx):
                value = operand(row, ctx)
                return None if value is None else -value

            negate.batch = lambda rows, ctx: [
                None if v is None else -v for v in operand_batch(rows, ctx)
            ]
            return negate
        raise ExecutionError(f"unknown unary operator {node.op!r}")

    def _compile_isnull(self, node: ast.IsNull) -> Scalar:
        operand = self.compile(node.operand)
        operand_batch = batch_form(operand)
        if node.negated:
            def not_null(row, ctx):
                return operand(row, ctx) is not None

            not_null.batch = lambda rows, ctx: [
                v is not None for v in operand_batch(rows, ctx)
            ]
            return not_null

        def null_test(row, ctx):
            return operand(row, ctx) is None

        null_test.batch = lambda rows, ctx: [v is None for v in operand_batch(rows, ctx)]
        return null_test

    def _compile_inlist(self, node: ast.InList) -> Scalar:
        operand = self.compile(node.operand)
        items = [self.compile(item) for item in node.items]

        def evaluate(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            seen_null = False
            for item in items:
                candidate = item(row, ctx)
                if candidate is None:
                    seen_null = True
                    continue
                if sql_equal(value, candidate) is True:
                    return False if node.negated else True
            if seen_null:
                return None
            return True if node.negated else False

        return evaluate

    def _compile_insubquery(self, node: ast.InSubquery) -> Scalar:
        """``IN (subquery)``: one hash probe per row into the membership
        structure the context builds once per execution; any combination
        the structure cannot answer exactly as ``sql_equal`` would (mixed
        families, dates against ISO strings, a string probed into
        numbers, NaN) takes the linear scan, which coerces or raises."""
        operand = self.compile(node.operand)
        operand_batch = batch_form(operand)
        subquery = node.subquery
        negated = node.negated

        def probe(value, membership, ctx):
            """``value`` (not NULL) against the execution's membership."""
            if membership is not None:
                members, family, seen_null = membership
                if not members or (
                    COMPARISON_FAMILY.get(type(value)) == family and value == value
                ):
                    if value in members:
                        return not negated
                    if seen_null:
                        return None
                    return negated
            return in_subquery_linear(value, ctx.run_subquery(subquery), negated)

        def evaluate(row, ctx):
            value = operand(row, ctx)
            if value is None:
                return None
            return probe(value, ctx.subquery_membership(subquery), ctx)

        def evaluate_batch(rows, ctx):
            values = operand_batch(rows, ctx)
            if all(value is None for value in values):
                return [None] * len(values)  # the subquery never runs
            membership = ctx.subquery_membership(subquery)
            return [
                None if value is None else probe(value, membership, ctx) for value in values
            ]

        evaluate.batch = evaluate_batch
        return evaluate

    def _compile_between(self, node: ast.Between) -> Scalar:
        operand = self.compile(node.operand)
        low = self.compile(node.low)
        high = self.compile(node.high)

        def evaluate(row, ctx):
            value = operand(row, ctx)
            result = sql_and(
                sql_compare(">=", value, low(row, ctx)),
                sql_compare("<=", value, high(row, ctx)),
            )
            return sql_not(result) if node.negated else result

        return evaluate

    def _compile_like(self, node: ast.Like) -> Scalar:
        operand = self.compile(node.operand)
        pattern_fn = self.compile(node.pattern)
        negated = node.negated
        operand_batch = batch_form(operand)
        constant = getattr(pattern_fn, "constant_value", None)
        if constant is not None:
            # Constant pattern: the regex is compiled exactly once, at
            # closure-build time — never inside the row loop.
            regex_match = compiled_like_pattern(str(constant)).match

            def match_constant(row, ctx):
                value = operand(row, ctx)
                if value is None:
                    return None
                matched = bool(regex_match(str(value)))
                return (not matched) if negated else matched

            def match_constant_batch(rows, ctx):
                out = []
                for value in operand_batch(rows, ctx):
                    if value is None:
                        out.append(None)
                        continue
                    matched = bool(regex_match(str(value)))
                    out.append((not matched) if negated else matched)
                return out

            match_constant.batch = match_constant_batch
            return match_constant

        def evaluate(row, ctx):
            value = operand(row, ctx)
            pattern = pattern_fn(row, ctx)
            if value is None or pattern is None:
                return None
            matched = bool(compiled_like_pattern(str(pattern)).match(str(value)))
            return (not matched) if negated else matched

        if _is_row_independent(pattern_fn):
            # Parameter-valued pattern: unknown until run time, but fixed
            # within an execution — compile once per chunk via the memo.
            def parameter_batch(rows, ctx):
                if not rows:
                    return []
                pattern = pattern_fn((), ctx)
                if pattern is None:
                    return [None] * len(rows)
                regex_match = compiled_like_pattern(str(pattern)).match
                out = []
                for value in operand_batch(rows, ctx):
                    if value is None:
                        out.append(None)
                        continue
                    matched = bool(regex_match(str(value)))
                    out.append((not matched) if negated else matched)
                return out

            evaluate.batch = parameter_batch
        return evaluate

    def _compile_casewhen(self, node: ast.CaseWhen) -> Scalar:
        compiled = [(self.compile(cond), self.compile(result)) for cond, result in node.whens]
        else_fn = self.compile(node.else_result) if node.else_result is not None else None

        def evaluate(row, ctx):
            for condition, result in compiled:
                if _as_bool(condition(row, ctx)) is True:
                    return result(row, ctx)
            if else_fn is not None:
                return else_fn(row, ctx)
            return None

        return evaluate

    def _compile_exists(self, node: ast.Exists) -> Scalar:
        def evaluate(row, ctx):
            rows = ctx.run_subquery(node.subquery)
            found = bool(rows)
            return (not found) if node.negated else found

        return evaluate

    def _compile_scalarsubquery(self, node: ast.ScalarSubquery) -> Scalar:
        def evaluate(row, ctx):
            rows = ctx.run_subquery(node.subquery)
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            return rows[0][0]

        return evaluate

    def _compile_funccall(self, node: ast.FuncCall) -> Scalar:
        if node.is_aggregate:
            raise ExecutionError(
                f"aggregate {node.name} outside GROUP BY context"
            )
        return _compile_scalar_function(self, node)


def _as_bool(value: Any) -> Optional[bool]:
    """Interpret a value in boolean context (non-zero numbers are true)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _compile_arithmetic(op: str, left: Scalar, right: Scalar) -> Scalar:
    def evaluate(row, ctx):
        lhs = left(row, ctx)
        rhs = right(row, ctx)
        if lhs is None or rhs is None:
            return None
        if op == "+":
            if isinstance(lhs, str) or isinstance(rhs, str):
                # T-SQL string concatenation via +
                if isinstance(lhs, str) and isinstance(rhs, str):
                    return lhs + rhs
                raise TypeCheckError("cannot add string and non-string")
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            if rhs == 0:
                raise ExecutionError("division by zero")
            if isinstance(lhs, int) and isinstance(rhs, int):
                # T-SQL integer division truncates toward zero.
                quotient = abs(lhs) // abs(rhs)
                return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
            return lhs / rhs
        if op == "%":
            if rhs == 0:
                raise ExecutionError("modulo by zero")
            return lhs - rhs * int(lhs / rhs)
        raise ExecutionError(f"unknown arithmetic operator {op!r}")

    return evaluate


def _compile_scalar_function(compiler: ExpressionCompiler, node: ast.FuncCall) -> Scalar:
    name = node.name
    args = [compiler.compile(arg) for arg in node.args]

    def need(count: int) -> None:
        if len(args) != count:
            raise ExecutionError(f"{name} expects {count} argument(s), got {len(args)}")

    if name == "COALESCE":
        def coalesce(row, ctx):
            for arg in args:
                value = arg(row, ctx)
                if value is not None:
                    return value
            return None

        return coalesce
    if name == "ISNULL":
        need(2)
        return lambda row, ctx: (
            args[0](row, ctx) if args[0](row, ctx) is not None else args[1](row, ctx)
        )
    if name in ("UPPER", "LOWER", "LTRIM", "RTRIM", "LEN", "ABS"):
        need(1)
        simple = {
            "UPPER": lambda v: str(v).upper(),
            "LOWER": lambda v: str(v).lower(),
            "LTRIM": lambda v: str(v).lstrip(),
            "RTRIM": lambda v: str(v).rstrip(),
            "LEN": lambda v: len(str(v).rstrip()),
            "ABS": abs,
        }[name]
        return lambda row, ctx: (None if args[0](row, ctx) is None else simple(args[0](row, ctx)))
    if name == "ROUND":
        need(2)

        def round_fn(row, ctx):
            value = args[0](row, ctx)
            digits = args[1](row, ctx)
            if value is None or digits is None:
                return None
            return round(value, int(digits))

        return round_fn
    if name == "SUBSTRING":
        need(3)

        def substring(row, ctx):
            text = args[0](row, ctx)
            start = args[1](row, ctx)
            length = args[2](row, ctx)
            if text is None or start is None or length is None:
                return None
            begin = max(0, int(start) - 1)  # SQL is 1-based
            return str(text)[begin : begin + int(length)]

        return substring
    if name == "CHARINDEX":
        need(2)

        def charindex(row, ctx):
            needle = args[0](row, ctx)
            haystack = args[1](row, ctx)
            if needle is None or haystack is None:
                return None
            return str(haystack).find(str(needle)) + 1  # 0 when absent, 1-based

        return charindex
    if name == "GETDATE":
        def getdate(row, ctx):
            return datetime.datetime(2003, 6, 9) + datetime.timedelta(seconds=ctx.now())

        return getdate
    if name == "STALENESS":
        # Seconds the local cached views may lag the backend, read off the
        # cache's one replication watermark when evaluated (0 on a server
        # that caches nothing): the currency guard of ``WITH FRESHNESS``.
        need(0)
        return lambda row, ctx: ctx.database.replication_staleness()
    if name in ("YEAR", "MONTH", "DAY"):
        need(1)
        attribute = name.lower()

        def extract(row, ctx):
            value = args[0](row, ctx)
            if value is None:
                return None
            return getattr(value, attribute)

        return extract
    if name == "FLOOR":
        need(1)
        import math

        return lambda row, ctx: (
            None if args[0](row, ctx) is None else math.floor(args[0](row, ctx))
        )
    if name == "CEILING":
        need(1)
        import math

        return lambda row, ctx: (
            None if args[0](row, ctx) is None else math.ceil(args[0](row, ctx))
        )
    raise ExecutionError(f"unknown function {name!r}")


def compile_scalar(expression: ast.Expression, schema: Optional[Schema] = None) -> Scalar:
    """Compile a scalar expression against a schema (convenience)."""
    return ExpressionCompiler(schema).compile(expression)


def compile_predicate(expression: ast.Expression, schema: Optional[Schema] = None) -> Scalar:
    """Compile a predicate; callers must test the result ``is True``."""
    return ExpressionCompiler(schema).compile(expression)
