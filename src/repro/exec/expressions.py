"""Expression compilation: AST → batch kernels with SQL semantics.

An expression compiles once per plan, against an input :class:`Schema`,
to one *kernel* ``(rows, ctx) -> list``: one value per input row, where
``None`` is SQL NULL. Comparison and boolean operators follow SQL
three-valued logic (``None`` = UNKNOWN); a predicate's list is a
selection vector, and a row passes only where its value is exactly
``True``. Kernels live in the plan, so they recompile only when a schema
bump invalidates it. A caller with one row — a seek key, a ChoosePlan
startup guard (paper §5.1), ``TOP``, a procedure step, a DML value, an
article's row filter — runs a batch of one through :func:`evaluate`.

The value-level definitions are the semantics: :func:`sql_compare`,
:func:`sql_and`/:func:`sql_or`/:func:`sql_not`, the arithmetic
operators, each scalar function, :func:`sql_in` and :class:`LikePattern`.
A node with no specialised kernel maps its value function over its
children's vectors (:func:`_strict`). The specialised kernels read a
column by position and a literal or parameter once per chunk
(:func:`tuple_kernel` fuses column reads into one ``itemgetter``); run a
column-vs-constant comparison with the raw Python operator, its
coercion picked once per chunk (``BETWEEN`` is two such comparisons);
compile a literal or parameter LIKE pattern once, testing a literal
core (``%lit%``, ``lit%``, ``%lit``, ``lit``) by containment, prefix,
suffix or equality instead of its regex; give ``EXISTS``, scalar
subqueries (uncorrelated, their rows memoised) and every eager node over
only row-independent operands (``@p <= 1000``) one value per chunk; and
keep ``CASE``, ``COALESCE`` and ``ISNULL`` lazy: a branch or argument
runs only on the rows that reach it.
"""

from __future__ import annotations

import datetime
import math
import operator as _operator
import re
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.common.lru import LRUCache
from repro.common.schema import Schema
from repro.common.types import (
    TypeKind,
    incomparable,
    is_numeric,
    is_string,
    is_temporal,
    parse_iso,
    probe_forms,
    value_kind,
)
from repro.errors import ExecutionError, TypeCheckError
from repro.exec.context import COMPARISON_FAMILY
from repro.sql import ast

#: A compiled expression: ``(rows, ctx) -> [value, ...]``, one per row.
Kernel = Callable[[Sequence[Tuple], Any], List[Any]]


def evaluate(kernel: Kernel, ctx: Any, row: Tuple = ()) -> Any:
    """The kernel's value for one row (a parameter-only expression: ``()``)."""
    return kernel((row,), ctx)[0]


def sql_equal(left: Any, right: Any) -> Optional[bool]:
    """Three-valued ``=``: NULL operands yield UNKNOWN (None)."""
    return sql_compare("=", left, right)


def sql_compare(op: str, left: Any, right: Any) -> Optional[bool]:
    """Three-valued comparison for =, <>, <, <=, >, >=."""
    if left is None or right is None:
        return None
    return _COMPARATORS[op](_coerce_pair(left, right), 0)


def sql_in(value: Any, candidates: Iterable[Any], negated: bool) -> Optional[bool]:
    """``value [NOT] IN (candidates)`` by ``sql_equal``; ``value`` is not
    NULL. A NULL candidate makes a miss UNKNOWN."""
    seen_null = False
    for candidate in candidates:
        if candidate is None:
            seen_null = True
            continue
        if sql_equal(value, candidate) is True:
            return not negated
    if seen_null:
        return None
    return negated


def in_subquery_linear(value: Any, rows: Sequence[Tuple], negated: bool) -> Optional[bool]:
    """``value [NOT] IN (rows' first column)`` by a ``sql_equal`` scan: the
    definition of the predicate (and the tests' oracle for the set probe),
    executed only where candidates and probe do not share one comparison
    family. ``value`` is not NULL."""
    return sql_in(value, (subrow[0] for subrow in rows), negated)


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
    """``text`` parsed as ``template``'s kind (:func:`parse_iso`)."""
    kind = TypeKind.DATETIME if isinstance(template, datetime.datetime) else TypeKind.DATE
    return parse_iso(text, kind)


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


def _as_bool(value: Any) -> Optional[bool]:
    """Interpret a value in boolean context (non-zero numbers are true)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _add(lhs: Any, rhs: Any) -> Any:
    if isinstance(lhs, str) or isinstance(rhs, str):
        # T-SQL string concatenation via +
        if isinstance(lhs, str) and isinstance(rhs, str):
            return lhs + rhs
        raise TypeCheckError("cannot add string and non-string")
    return lhs + rhs


def _divide(lhs: Any, rhs: Any) -> Any:
    if rhs == 0:
        raise ExecutionError("division by zero")
    if isinstance(lhs, int) and isinstance(rhs, int):
        # T-SQL integer division truncates toward zero.
        quotient = abs(lhs) // abs(rhs)
        return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
    return lhs / rhs


def _modulo(lhs: Any, rhs: Any) -> Any:
    if rhs == 0:
        raise ExecutionError("modulo by zero")
    if isinstance(lhs, int) and isinstance(rhs, int):
        # Exact, and signed like the dividend (T-SQL truncates toward zero).
        remainder = abs(lhs) % abs(rhs)
        return remainder if lhs >= 0 else -remainder
    return math.fmod(lhs, rhs)


_ARITHMETIC = {
    "+": _add,
    "-": _operator.sub,
    "*": _operator.mul,
    "/": _divide,
    "%": _modulo,
}


def _substring(text: Any, start: Any, length: Any) -> str:
    begin = max(0, int(start) - 1)  # SQL is 1-based
    return str(text)[begin : begin + int(length)]


#: What ``GETDATE()`` reads at virtual time zero.
_EPOCH = datetime.datetime(2003, 6, 9)

#: Scalar functions that are NULL on any NULL argument: (arity, value function).
_STRICT_FUNCTIONS = {
    "UPPER": (1, lambda value: str(value).upper()),
    "LOWER": (1, lambda value: str(value).lower()),
    "LTRIM": (1, lambda value: str(value).lstrip()),
    "RTRIM": (1, lambda value: str(value).rstrip()),
    "LEN": (1, lambda value: len(str(value).rstrip())),
    "ABS": (1, abs),
    "ROUND": (2, lambda value, digits: round(value, int(digits))),
    "SUBSTRING": (3, _substring),
    # 1-based; 0 when absent.
    "CHARINDEX": (2, lambda needle, haystack: str(haystack).find(str(needle)) + 1),
    "YEAR": (1, _operator.attrgetter("year")),
    "MONTH": (1, _operator.attrgetter("month")),
    "DAY": (1, _operator.attrgetter("day")),
    "FLOOR": (1, math.floor),
    "CEILING": (1, math.ceil),
}


def _strict(label: str, function: Callable[..., Any], kernels: Sequence[Kernel]) -> Kernel:
    """The kernel mapping a value function over its children's vectors:
    NULL where any argument is NULL. A ``TypeError``, ``AttributeError``
    or ``ValueError`` the function raises (not a child kernel) is the
    operands' type: it becomes a :class:`TypeCheckError` naming ``label``.
    Over row-independent children it is row-independent itself: the
    function runs once per call, on the children's values."""

    if all(map(_is_row_independent, kernels)):
        values = [kernel.value for kernel in kernels]  # type: ignore[attr-defined]
        if len(values) == 2:
            left_value, right_value = values

            def once(ctx):
                lhs = left_value(ctx)
                rhs = right_value(ctx)
                if lhs is None or rhs is None:
                    return None
                try:
                    return function(lhs, rhs)
                except (TypeError, AttributeError, ValueError) as exc:
                    raise TypeCheckError(f"{label}: {exc}") from None

        else:

            def once(ctx):
                args = [value(ctx) for value in values]
                if None in args:
                    return None
                try:
                    return function(*args)
                except (TypeError, AttributeError, ValueError) as exc:
                    raise TypeCheckError(f"{label}: {exc}") from None

        return _per_chunk(once)

    if len(kernels) == 2:
        left, right = kernels

        def binary(rows, ctx):
            pairs = zip(left(rows, ctx), right(rows, ctx))
            try:
                return [
                    None if lhs is None or rhs is None else function(lhs, rhs)
                    for lhs, rhs in pairs
                ]
            except (TypeError, AttributeError, ValueError) as exc:
                raise TypeCheckError(f"{label}: {exc}") from None

        return binary

    def general(rows, ctx):
        columns = [kernel(rows, ctx) for kernel in kernels]
        try:
            return [None if None in args else function(*args) for args in zip(*columns)]
        except (TypeError, AttributeError, ValueError) as exc:
            raise TypeCheckError(f"{label}: {exc}") from None

    return general


def _per_chunk(value: Callable[[Any], Any]) -> Kernel:
    """The row-independent kernel of ``value(ctx)``: computed once per
    non-empty chunk and repeated, never on an empty one. Its ``value`` is
    what a parent over row-independent operands reads instead of a
    batch (:func:`_is_row_independent`)."""

    def row_independent(rows, ctx):
        return [value(ctx)] * len(rows) if rows else []

    row_independent.value = value  # type: ignore[attr-defined]
    return row_independent


def _fill(results: List[Any], positions: List[int], kernel: Kernel, rows, ctx) -> None:
    """Write ``kernel``'s values for the rows at ``positions`` into ``results``."""
    values = kernel([rows[i] for i in positions], ctx)
    for i, value in zip(positions, values):
        results[i] = value


def _coalesce(kernels: Sequence[Kernel]) -> Kernel:
    """``COALESCE``: each argument runs only on the rows still NULL."""

    def run(rows, ctx):
        results = [None] * len(rows)
        pending = list(range(len(rows)))
        for kernel in kernels:
            if not pending:
                break
            _fill(results, pending, kernel, rows, ctx)
            pending = [i for i in pending if results[i] is None]
        return results

    return run


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


class LikePattern:
    """A compiled LIKE pattern: its IGNORECASE regex and a batch matcher.

    A pattern whose only wildcards are a leading and/or trailing ``%``
    around an ASCII literal (``%lit%``, ``lit%``, ``%lit``, ``lit``) tests
    an ASCII value's ``.lower()`` by containment, prefix, suffix or
    equality instead — what the regex answers there, including ``$``
    accepting one final newline. A non-ASCII value (``re.IGNORECASE``
    folds the Kelvin sign or ``ſ`` into ASCII letters) and every other
    pattern take the regex.
    """

    __slots__ = ("regex", "_test")

    def __init__(self, pattern: str):
        self.regex = like_to_regex(pattern)
        self._test = _literal_test(pattern)

    def matches(self, values: Sequence[Any]) -> List[Optional[bool]]:
        """Per value: NULL for NULL, else whether its text matches."""
        regex_match = self.regex.match
        test = self._test
        if test is None:
            return [
                None if value is None
                else regex_match(value if type(value) is str else str(value)) is not None
                for value in values
            ]
        return [
            None if value is None
            else test(text.lower())
            if (text := value if type(value) is str else str(value)).isascii()
            else regex_match(text) is not None
            for value in values
        ]

    def match(self, value: Any) -> bool:
        """Whether one non-NULL value's text matches."""
        return bool(self.matches((value,))[0])


def _literal_test(pattern: str) -> Optional[Callable[[str], bool]]:
    """The string test for a literal-core pattern over lowered ASCII
    text (a C-level callable), or None when the pattern needs its regex."""
    core = pattern.strip("%")
    if "%" in core or "_" in core or not core.isascii():
        return None
    literal = core.lower()
    ends = (literal, literal + "\n")
    if pattern.startswith("%"):
        if pattern.endswith("%"):
            return _operator.methodcaller("__contains__", literal)
        return _operator.methodcaller("endswith", ends)
    if pattern.endswith("%"):
        return _operator.methodcaller("startswith", literal)
    return ends.__contains__


#: Process-wide bounded memo of compiled LIKE patterns: a constant pattern
#: or parameter pattern compiles once per distinct value, not per row.
_like_pattern_memo: LRUCache = LRUCache(256)


def compiled_like_pattern(pattern: str) -> LikePattern:
    """Fetch (or build and memoize) the compiled form of a LIKE pattern."""
    compiled = _like_pattern_memo.get(pattern)
    if compiled is None:
        compiled = LikePattern(pattern)
        _like_pattern_memo[pattern] = compiled
    return compiled


def stored_as(kernel: Kernel, kind: Optional[TypeKind]) -> Kernel:
    """``kernel`` with each value brought to a ``kind`` column's stored
    form (:func:`~repro.common.types.probe_forms`); ``kernel`` itself for
    no kind. A value no stored one can equal becomes NULL — it never
    equi-joins — and NULL stays NULL. The planner wraps equi-join keys in
    it (:func:`~repro.common.types.equi_join_forms`)."""
    if kind is None:
        return kernel
    forms = probe_forms(kind)

    def convert(value: Any) -> Any:
        try:
            form = forms[type(value)]
        except KeyError:
            raise incomparable(value_kind(value), kind) from None
        if form is None:
            return value
        stored, exact = form(value)
        return stored if exact else None

    return lambda rows, ctx: [convert(value) for value in kernel(rows, ctx)]


def column_maker(position: int) -> Kernel:
    """The kernel reading one row position; :func:`tuple_kernel`
    recognizes it (``column_position``) and fuses column reads into a
    single ``itemgetter``."""

    def column(rows, ctx):
        return [row[position] for row in rows]

    column.column_position = position  # type: ignore[attr-defined]
    return column


def tuple_kernel(makers: Sequence[Kernel]) -> Kernel:
    """Kernel producing one tuple per row from a list of kernels.

    Used for projections, group keys and join key extraction. When every
    kernel is a plain column reference it collapses to an ``itemgetter``;
    otherwise each kernel computes a column vector and the vectors are
    zipped back into rows.
    """
    if not makers:
        # No extractors (e.g. GROUP BY-less aggregation): every row keys
        # to the empty tuple.
        return lambda rows, ctx: [()] * len(rows)
    positions = [getattr(maker, "column_position", None) for maker in makers]
    if all(position is not None for position in positions):
        if len(positions) == 1:
            first = positions[0]
            return lambda rows, ctx: [(row[first],) for row in rows]
        getter = _operator.itemgetter(*positions)
        return lambda rows, ctx: [getter(row) for row in rows]
    kernels = list(makers)

    def run(rows: Sequence[Tuple], ctx: object) -> List[Any]:
        if not rows:
            return []
        return list(zip(*[kernel(rows, ctx) for kernel in kernels]))

    return run


#: Python comparator per SQL comparison: applied to ``_coerce_pair``'s
#: sign and 0 by :func:`sql_compare`, to raw values by the
#: column-vs-constant path.
_COMPARATORS = {
    "=": _operator.eq,
    "<>": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


#: Mirror of each comparator for normalizing ``const OP col`` to
#: ``col OP' const`` (``5 < col`` ≡ ``col > 5``).
_FLIPPED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _is_row_independent(kernel: Kernel) -> bool:
    """True when the kernel ignores the rows: a literal, a parameter, a
    per-chunk value, or an eager node over only those (:func:`_per_chunk`)."""
    return hasattr(kernel, "value")


class ExpressionCompiler:
    """Compiles AST expressions to kernels over a fixed input schema."""

    def __init__(self, schema: Optional[Schema] = None):
        self.schema = schema or Schema(())

    def compile(self, expression: ast.Expression) -> Kernel:
        """Compile an expression to its kernel."""
        method = getattr(self, f"_compile_{type(expression).__name__.lower()}", None)
        if method is None:
            raise ExecutionError(
                f"cannot compile expression of type {type(expression).__name__}"
            )
        return method(expression)

    # -- leaves ---------------------------------------------------------------

    def _compile_literal(self, node: ast.Literal) -> Kernel:
        value = node.value
        return _per_chunk(lambda ctx: value)

    def _compile_columnref(self, node: ast.ColumnRef) -> Kernel:
        return column_maker(self.schema.resolve(node.name, node.qualifier))

    def _compile_parameter(self, node: ast.Parameter) -> Kernel:
        name = node.name
        return _per_chunk(lambda ctx: ctx.param(name))

    def _compile_star(self, node: ast.Star) -> Kernel:
        raise ExecutionError("'*' is only valid in select lists and COUNT(*)")

    # -- operators ---------------------------------------------------------------

    def _compile_binaryop(self, node: ast.BinaryOp) -> Kernel:
        left = self.compile(node.left)
        right = self.compile(node.right)
        op = node.op
        if op in ("AND", "OR"):
            combine = sql_and if op == "AND" else sql_or
            if _is_row_independent(left) and _is_row_independent(right):
                left_value, right_value = left.value, right.value  # type: ignore[attr-defined]
                return _per_chunk(
                    lambda ctx: combine(_as_bool(left_value(ctx)), _as_bool(right_value(ctx)))
                )

            def logical(rows, ctx):
                # Both sides evaluate on every row (no short circuit).
                return [
                    combine(_as_bool(lhs), _as_bool(rhs))
                    for lhs, rhs in zip(left(rows, ctx), right(rows, ctx))
                ]

            return logical
        if op in _COMPARATORS:
            return self._compare(op, left, right)
        if op in _ARITHMETIC:
            return _strict(op, _ARITHMETIC[op], (left, right))
        raise ExecutionError(f"unknown binary operator {op!r}")

    def _compare(self, op: str, left: Kernel, right: Kernel) -> Kernel:
        """A comparison's kernel. A column against a literal or parameter
        reads the operand once per chunk and picks the coercion dispatch
        once from the column's declared type and the operand's runtime
        type, so the loop runs a raw Python comparator; a value outside
        that case, and every other shape, takes :func:`sql_compare`."""
        left_position = getattr(left, "column_position", None)
        right_position = getattr(right, "column_position", None)
        if left_position is not None and _is_row_independent(right):
            position, hoisted, effective_op = left_position, right, op
        elif right_position is not None and _is_row_independent(left):
            position, hoisted, effective_op = right_position, left, _FLIPPED[op]
        else:
            comparator = _COMPARATORS[op]
            return _strict(
                op, lambda lhs, rhs: comparator(_coerce_pair(lhs, rhs), 0), (left, right)
            )

        columns = self.schema.columns
        sql_type = columns[position].sql_type if position < len(columns) else None
        # The Python types a column of this SQL type holds natively.
        native: Any = None
        if sql_type is not None and is_numeric(sql_type):
            native = (int, float)
        elif sql_type is not None and is_string(sql_type):
            native = str
        temporal = sql_type is not None and is_temporal(sql_type)
        comparator = _COMPARATORS[effective_op]
        hoisted_value = hoisted.value  # type: ignore[attr-defined]

        def fast(rows, ctx):
            if not rows:
                return []
            other = hoisted_value(ctx)
            if other is None:
                return [None] * len(rows)
            if isinstance(other, bool):
                other = int(other)
            if native is not None and isinstance(other, native):
                return [
                    None if (v := row[position]) is None
                    else (comparator(v, other) if isinstance(v, native)
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

    def _compile_unaryop(self, node: ast.UnaryOp) -> Kernel:
        operand = self.compile(node.operand)
        if node.op == "NOT":
            if _is_row_independent(operand):
                value = operand.value  # type: ignore[attr-defined]
                return _per_chunk(lambda ctx: sql_not(_as_bool(value(ctx))))
            return lambda rows, ctx: [sql_not(_as_bool(v)) for v in operand(rows, ctx)]
        if node.op == "-":
            return _strict("unary -", _operator.neg, (operand,))
        raise ExecutionError(f"unknown unary operator {node.op!r}")

    def _compile_isnull(self, node: ast.IsNull) -> Kernel:
        operand = self.compile(node.operand)
        if _is_row_independent(operand):
            value, negated = operand.value, node.negated  # type: ignore[attr-defined]
            return _per_chunk(lambda ctx: (value(ctx) is None) != negated)
        if node.negated:
            return lambda rows, ctx: [v is not None for v in operand(rows, ctx)]
        return lambda rows, ctx: [v is None for v in operand(rows, ctx)]

    def _compile_inlist(self, node: ast.InList) -> Kernel:
        operand = self.compile(node.operand)
        items = [self.compile(item) for item in node.items]
        negated = node.negated
        if all(map(_is_row_independent, [operand, *items])):
            value = operand.value  # type: ignore[attr-defined]
            item_values = [item.value for item in items]  # type: ignore[attr-defined]

            def once(ctx):
                probe = value(ctx)
                candidates = [item_value(ctx) for item_value in item_values]
                return None if probe is None else sql_in(probe, candidates, negated)

            return _per_chunk(once)

        def in_list(rows, ctx):
            candidates = zip(*[item(rows, ctx) for item in items])
            return [
                None if value is None else sql_in(value, row_items, negated)
                for value, row_items in zip(operand(rows, ctx), candidates)
            ]

        return in_list

    def _compile_insubquery(self, node: ast.InSubquery) -> Kernel:
        """``IN (subquery)``: one hash probe per row into the membership
        structure the context builds once per execution; any combination
        the structure cannot answer exactly as ``sql_equal`` would (mixed
        families, dates against ISO strings, a string probed into
        numbers, NaN) takes the linear scan, which coerces or raises."""
        operand = self.compile(node.operand)
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

        def in_subquery(rows, ctx):
            values = operand(rows, ctx)
            if all(value is None for value in values):
                return [None] * len(values)  # the subquery never runs
            membership = ctx.subquery_membership(subquery)
            return [
                None if value is None else probe(value, membership, ctx) for value in values
            ]

        return in_subquery

    def _compile_between(self, node: ast.Between) -> Kernel:
        both = ast.BinaryOp(
            "AND",
            ast.BinaryOp(">=", node.operand, node.low),
            ast.BinaryOp("<=", node.operand, node.high),
        )
        return self.compile(ast.UnaryOp("NOT", both) if node.negated else both)

    def _compile_like(self, node: ast.Like) -> Kernel:
        operand = self.compile(node.operand)
        pattern_kernel = self.compile(node.pattern)
        negated = node.negated
        if _is_row_independent(pattern_kernel) and not _is_row_independent(operand):
            # A literal or parameter pattern is fixed within an execution:
            # read once per chunk, compiled once through the memo.
            pattern_value = pattern_kernel.value  # type: ignore[attr-defined]

            def match_hoisted(rows, ctx):
                if not rows:
                    return []
                pattern = pattern_value(ctx)
                if pattern is None:
                    return [None] * len(rows)
                results = compiled_like_pattern(str(pattern)).matches(operand(rows, ctx))
                return [sql_not(result) for result in results] if negated else results

            return match_hoisted
        return _strict(
            "LIKE",
            lambda value, pattern: compiled_like_pattern(str(pattern)).match(value) != negated,
            (operand, pattern_kernel),
        )

    def _compile_casewhen(self, node: ast.CaseWhen) -> Kernel:
        compiled = [(self.compile(cond), self.compile(result)) for cond, result in node.whens]
        otherwise = self.compile(node.else_result) if node.else_result is not None else None

        def case(rows, ctx):
            # Each condition runs on the rows no earlier WHEN took, each
            # branch on the rows it takes.
            results = [None] * len(rows)
            pending = list(range(len(rows)))
            for condition, result in compiled:
                if not pending:
                    return results
                flags = condition([rows[i] for i in pending], ctx)
                taken = [i for i, flag in zip(pending, flags) if _as_bool(flag) is True]
                if taken:
                    _fill(results, taken, result, rows, ctx)
                    pending = [i for i, flag in zip(pending, flags) if _as_bool(flag) is not True]
            if otherwise is not None and pending:
                _fill(results, pending, otherwise, rows, ctx)
            return results

        return case

    def _compile_exists(self, node: ast.Exists) -> Kernel:
        subquery, negated = node.subquery, node.negated
        return _per_chunk(lambda ctx: bool(ctx.run_subquery(subquery)) != negated)

    def _compile_scalarsubquery(self, node: ast.ScalarSubquery) -> Kernel:
        subquery = node.subquery

        def value(ctx):
            found = ctx.run_subquery(subquery)
            if len(found) > 1:
                raise ExecutionError("scalar subquery returned more than one row")
            return found[0][0] if found else None

        return _per_chunk(value)

    def _compile_funccall(self, node: ast.FuncCall) -> Kernel:
        if node.is_aggregate:
            raise ExecutionError(
                f"aggregate {node.name} outside GROUP BY context"
            )
        name = node.name
        args = [self.compile(arg) for arg in node.args]

        def need(count: int) -> None:
            if len(args) != count:
                raise ExecutionError(f"{name} expects {count} argument(s), got {len(args)}")

        if name in _STRICT_FUNCTIONS:
            arity, function = _STRICT_FUNCTIONS[name]
            need(arity)
            return _strict(name, function, args)
        if name in ("COALESCE", "ISNULL"):
            if name == "ISNULL":
                need(2)
            return _coalesce(args)
        if name == "GETDATE":
            return _per_chunk(lambda ctx: _EPOCH + datetime.timedelta(seconds=ctx.now()))
        if name == "STALENESS":
            # Seconds the local cached views may lag the backend, read off the
            # cache's one replication watermark when evaluated (0 on a server
            # that caches nothing): the currency guard of ``WITH FRESHNESS``.
            need(0)
            return _per_chunk(lambda ctx: ctx.database.replication_staleness())
        raise ExecutionError(f"unknown function {name!r}")


def compile_scalar(expression: ast.Expression, schema: Optional[Schema] = None) -> Kernel:
    """Compile an expression against a schema (convenience)."""
    return ExpressionCompiler(schema).compile(expression)
