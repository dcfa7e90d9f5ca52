"""SQL type system used throughout the engine.

The engine stores values as plain Python objects (``int``, ``float``, ``str``,
``datetime.date``, ``datetime.datetime``, ``bool`` and ``None`` for SQL NULL)
and uses :class:`SqlType` descriptors on schemas to drive coercion, width
estimation (for transfer-cost modelling) and literal formatting when shipping
queries to a linked server as text.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.errors import TypeCheckError


class TypeKind(enum.Enum):
    """The kinds of SQL types the engine supports."""

    INT = "int"
    BIGINT = "bigint"
    FLOAT = "float"
    NUMERIC = "numeric"
    VARCHAR = "varchar"
    CHAR = "char"
    DATE = "date"
    DATETIME = "datetime"
    BOOLEAN = "bit"


_NUMERIC_KINDS = frozenset(
    {TypeKind.INT, TypeKind.BIGINT, TypeKind.FLOAT, TypeKind.NUMERIC}
)
_STRING_KINDS = frozenset({TypeKind.VARCHAR, TypeKind.CHAR})
_TEMPORAL_KINDS = frozenset({TypeKind.DATE, TypeKind.DATETIME})

# Numeric widening order used by common_type().
_NUMERIC_RANK = {
    TypeKind.INT: 0,
    TypeKind.BIGINT: 1,
    TypeKind.NUMERIC: 2,
    TypeKind.FLOAT: 3,
}

# Estimated storage width in bytes, used by the DataTransfer cost model.
_FIXED_WIDTHS = {
    TypeKind.INT: 4,
    TypeKind.BIGINT: 8,
    TypeKind.FLOAT: 8,
    TypeKind.NUMERIC: 9,
    TypeKind.DATE: 4,
    TypeKind.DATETIME: 8,
    TypeKind.BOOLEAN: 1,
}


@dataclass(frozen=True)
class SqlType:
    """A SQL type descriptor: a kind plus optional length/precision/scale."""

    kind: TypeKind
    length: Optional[int] = None  # for VARCHAR/CHAR
    precision: Optional[int] = None  # for NUMERIC
    scale: Optional[int] = None  # for NUMERIC

    def __str__(self) -> str:
        if self.kind in _STRING_KINDS:
            name = "varchar" if self.kind is TypeKind.VARCHAR else "char"
            return f"{name}({self.length})" if self.length else name
        if self.kind is TypeKind.NUMERIC and self.precision is not None:
            if self.scale is not None:
                return f"numeric({self.precision},{self.scale})"
            return f"numeric({self.precision})"
        return self.kind.value

    @property
    def width(self) -> int:
        """Estimated average stored width in bytes (for transfer costing)."""
        if self.kind in _STRING_KINDS:
            declared = self.length or 32
            # Variable-length strings are assumed half full on average.
            if self.kind is TypeKind.VARCHAR:
                return max(1, declared // 2) + 2
            return declared
        return _FIXED_WIDTHS[self.kind]


# Convenience singletons for the common parameterless types.
INT = SqlType(TypeKind.INT)
BIGINT = SqlType(TypeKind.BIGINT)
FLOAT = SqlType(TypeKind.FLOAT)
NUMERIC = SqlType(TypeKind.NUMERIC, precision=15, scale=2)
DATE = SqlType(TypeKind.DATE)
DATETIME = SqlType(TypeKind.DATETIME)
BOOLEAN = SqlType(TypeKind.BOOLEAN)


def VARCHAR(length: Optional[int] = None) -> SqlType:
    """Build a ``varchar(length)`` type descriptor."""
    return SqlType(TypeKind.VARCHAR, length=length)


def CHAR(length: int) -> SqlType:
    """Build a ``char(length)`` type descriptor."""
    return SqlType(TypeKind.CHAR, length=length)


def is_numeric(sql_type: SqlType) -> bool:
    """Return True if the type participates in arithmetic."""
    return sql_type.kind in _NUMERIC_KINDS


def is_string(sql_type: SqlType) -> bool:
    """Return True if the type is a character string type."""
    return sql_type.kind in _STRING_KINDS


def is_temporal(sql_type: SqlType) -> bool:
    """Return True if the type is DATE or DATETIME."""
    return sql_type.kind in _TEMPORAL_KINDS


def common_type(left: SqlType, right: SqlType) -> SqlType:
    """Return the widened type two operand types combine into.

    Raises :class:`TypeCheckError` when the types are incompatible
    (e.g. string with numeric).
    """
    if left.kind == right.kind:
        if left.kind in _STRING_KINDS:
            length = None
            if left.length is not None and right.length is not None:
                length = max(left.length, right.length)
            return SqlType(left.kind, length=length)
        return left
    if left.kind in _NUMERIC_KINDS and right.kind in _NUMERIC_KINDS:
        winner = max(left.kind, right.kind, key=_NUMERIC_RANK.__getitem__)
        return SqlType(winner) if winner is not TypeKind.NUMERIC else NUMERIC
    if left.kind in _STRING_KINDS and right.kind in _STRING_KINDS:
        return VARCHAR(None)
    if left.kind in _TEMPORAL_KINDS and right.kind in _TEMPORAL_KINDS:
        return DATETIME
    raise TypeCheckError(f"incompatible types: {left} and {right}")


#: What a comparison can tell kinds apart by: BIT counts as a number (the
#: engine compares 0/1 freely), CHAR as a string, DATE as a datetime.
_FAMILIES = {
    **dict.fromkeys(_NUMERIC_KINDS | {TypeKind.BOOLEAN}, "number"),
    **dict.fromkeys(_STRING_KINDS, "string"),
    **dict.fromkeys(_TEMPORAL_KINDS, "temporal"),
}
#: Kinds sharing another's Python representation, named after it in errors.
_HELD_AS = {TypeKind.BIGINT: TypeKind.INT, TypeKind.NUMERIC: TypeKind.FLOAT, TypeKind.CHAR: TypeKind.VARCHAR}
_VALUE_KINDS = {
    bool: TypeKind.BOOLEAN,
    int: TypeKind.INT,
    float: TypeKind.FLOAT,
    str: TypeKind.VARCHAR,
    datetime.date: TypeKind.DATE,
    datetime.datetime: TypeKind.DATETIME,
}


def value_kind(value: Any) -> Optional[TypeKind]:
    """The kind a (non-NULL) Python value is held as; None for anything else."""
    return _VALUE_KINDS.get(type(value))


def comparable(left: TypeKind, right: TypeKind) -> bool:
    """The engine's one comparison rule, stated on kinds: numbers with
    numbers, strings with strings, temporals with temporals or with (ISO)
    strings. ``sql_compare`` applies it to values, the planner to static
    types, an index seek to its key against the column."""
    families = {_FAMILIES[left], _FAMILIES[right]}
    return len(families) == 1 or families == {"string", "temporal"}


def comparable_types(kind: TypeKind) -> FrozenSet[type]:
    """The Python types of the values :func:`comparable` accepts against
    ``kind`` — NULL's included: it compares with anything (to UNKNOWN)."""
    accepted = (held for held, other in _VALUE_KINDS.items() if comparable(other, kind))
    return frozenset((type(None), *accepted))


#: How a probe part becomes its column's stored form: ``(stored, exact)``.
#: ``exact`` is False when no stored value can equal the part; ``stored``
#: is then the greatest stored-form value below it.
Convert = Callable[[Any], Tuple[Any, bool]]


def _day_of(moment: datetime.datetime) -> Tuple[datetime.date, bool]:
    """A DATE column holds midnights: a moment with a time of day lies
    strictly between its day and the next."""
    day = moment.date()
    return day, moment == datetime.datetime(day.year, day.month, day.day)


def parse_iso(text: str, kind: TypeKind) -> datetime.date:
    """``text`` as a value of temporal ``kind``: a DATE's ``date`` or a
    DATETIME's ``datetime``. A string that is no ISO form of one is a
    :class:`TypeCheckError`, on every path that parses one."""
    try:
        if kind is TypeKind.DATETIME:
            return datetime.datetime.fromisoformat(text)
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise TypeCheckError(f"cannot convert {text!r} to {kind.value}") from None


def probe_forms(kind: TypeKind) -> Dict[type, Optional[Convert]]:
    """For each Python type the comparison rule accepts against ``kind``,
    how a probe value of that type becomes the column's stored form
    (None: it already is one).

    Numbers need nothing: ``bool``, ``int`` and ``float`` hash and compare
    as one kind in an index's exact-key map and in the tree's encoding,
    just as the comparison rule compares them. Where a scan parses one
    side — a temporal column against an ISO string, a date against a
    datetime — the probe is parsed instead. A string column matches a
    temporal probe against the text the engine stores for it
    (``str(value)``).
    """
    forms: Dict[type, Optional[Convert]] = dict.fromkeys(comparable_types(kind))
    if kind is TypeKind.DATE:
        forms[datetime.datetime] = _day_of
        forms[str] = lambda text: (parse_iso(text, TypeKind.DATE), True)
    elif kind is TypeKind.DATETIME:
        forms[datetime.date] = lambda day: (
            datetime.datetime(day.year, day.month, day.day), True
        )
        forms[str] = lambda text: (parse_iso(text, TypeKind.DATETIME), True)
    elif kind in _STRING_KINDS:
        forms[datetime.date] = forms[datetime.datetime] = lambda value: (str(value), True)
    return forms


def equi_join_forms(
    left: Optional[TypeKind], right: Optional[TypeKind]
) -> Tuple[Optional[TypeKind], Optional[TypeKind]]:
    """The column kind whose stored form (:func:`probe_forms`) each side
    of an equi-join key is brought to — None where its values already
    hash as the other side's do — so that keys the comparison rule calls
    equal are equal as hash keys. As for an index probe, the side a scan
    parses is parsed: a string against a temporal becomes that temporal,
    and a date against a datetime becomes that day's midnight. Numbers
    need nothing. Kinds not known at plan time (None) are left alone."""
    if left is None or right is None or left is right:
        return None, None
    families = (_FAMILIES[left], _FAMILIES[right])
    if families == ("string", "temporal") or (left, right) == (TypeKind.DATE, TypeKind.DATETIME):
        return right, None
    if families == ("temporal", "string") or (left, right) == (TypeKind.DATETIME, TypeKind.DATE):
        return None, left
    return None, None


def incomparable(left: Optional[TypeKind], right: Optional[TypeKind]) -> TypeCheckError:
    """The error for a pair :func:`comparable` refuses. It names the kinds
    as their values are held and in a fixed order, so whichever access path
    meets the pair — a filter, a ChoosePlan guard, an index seek — and on
    whichever side, the answer is the same."""
    first, second = sorted(
        _HELD_AS.get(kind, kind).value if kind is not None else "unknown"
        for kind in (left, right)
    )
    return TypeCheckError(f"cannot compare {first} and {second}")


def check_arithmetic(op: str, left: SqlType, right: SqlType) -> None:
    """Arithmetic takes numbers; ``+`` also concatenates two strings."""
    families = {_FAMILIES[left.kind], _FAMILIES[right.kind]}
    if families != {"number"} and not (op == "+" and families == {"string"}):
        raise TypeCheckError(f"cannot apply {op!r} to {left.kind.value} and {right.kind.value}")


#: The inverse of ``_VALUE_KINDS``: the Python type each kind is held as.
_HELD_TYPES = {kind: held for held, kind in _VALUE_KINDS.items()}


def stored_type(kind: TypeKind) -> type:
    """The Python type values of ``kind`` are stored as: the one type
    :func:`coerce_value` returns unchanged (a string only within its
    column's length)."""
    return _HELD_TYPES[_HELD_AS.get(kind, kind)]


def coerce_value(value: Any, sql_type: SqlType) -> Any:
    """Coerce a Python value to the representation used for ``sql_type``.

    NULL (``None``) passes through every type unchanged. Raises
    :class:`TypeCheckError` when the value cannot represent the type.
    """
    if value is None:
        return None
    kind = sql_type.kind
    if kind in (TypeKind.INT, TypeKind.BIGINT):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError as exc:
                raise TypeCheckError(f"cannot coerce {value!r} to {sql_type}") from exc
        raise TypeCheckError(f"cannot coerce {value!r} to {sql_type}")
    if kind in (TypeKind.FLOAT, TypeKind.NUMERIC):
        if isinstance(value, bool):
            return float(value)
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError as exc:
                raise TypeCheckError(f"cannot coerce {value!r} to {sql_type}") from exc
        raise TypeCheckError(f"cannot coerce {value!r} to {sql_type}")
    if kind in _STRING_KINDS:
        if isinstance(value, str):
            if sql_type.length is not None and len(value) > sql_type.length:
                return value[: sql_type.length]
            return value
        return str(value)
    if kind is TypeKind.DATE:
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            return parse_iso(value, kind)
        raise TypeCheckError(f"cannot coerce {value!r} to {sql_type}")
    if kind is TypeKind.DATETIME:
        if isinstance(value, datetime.datetime):
            return value
        if isinstance(value, datetime.date):
            return datetime.datetime(value.year, value.month, value.day)
        if isinstance(value, str):
            return parse_iso(value, kind)
        raise TypeCheckError(f"cannot coerce {value!r} to {sql_type}")
    if kind is TypeKind.BOOLEAN:
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            return bool(value)
        raise TypeCheckError(f"cannot coerce {value!r} to {sql_type}")
    raise TypeCheckError(f"unsupported type {sql_type}")


def sql_literal(value: Any) -> str:
    """Render a Python value as a SQL literal for remote query shipping."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, datetime.datetime):
        return f"'{value.isoformat(sep=' ')}'"
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
