"""Literal lifting: the normal form every statement-keyed cache keys on.

``… WHERE cid = 4711`` becomes ``… WHERE cid = @__li1`` plus
``{"__li1": 4711}`` (SQL Server's *simple parameterisation*), so one parse,
one dynamic plan and one prepared handle serve every value of an ad-hoc
text. The rules, each conservative — a literal left in place is always
correct, merely less shared:

1. Only direct right-hand operands on the safe list are lifted: after a
   comparison operator, ``BETWEEN`` or ``AND`` inside ``WHERE`` / ``ON`` /
   ``SET``, elements of ``IN (...)`` and ``VALUES (...)`` lists, and
   ``EXEC`` argument values. Select lists, ``TOP``, ``GROUP BY``,
   ``HAVING``, ``ORDER BY``, ``LIKE`` patterns (their shape picks the
   kernel), ``WITH FRESHNESS`` and ``NULL`` are never touched, nor is any
   batch holding a ``CREATE`` (its text is stored in the catalog).
2. Markers are typed and shared: ``1``, ``1.0`` and ``'1'`` lift to
   ``@__li…``, ``@__lf…`` and ``@__ls…``, and equal (type, value) pairs in
   one text share one marker, so an expression still matches its twin.
3. The ``@__l`` prefix is reserved: a text that already uses it is left
   alone (which also makes an already-lifted text a no-op downstream), and
   :func:`overlay` refuses a parameter dict that does. A generated text
   whose literals are part of its shape says so with :data:`AS_WRITTEN`.
4. One scan over the lexer's own pattern (:data:`repro.sql.lexer.TOKEN`),
   no second ``tokenize()``; a text with no quote and no digit outside a
   word is returned after a character-class search.
5. A sign is an operator and stays outside the marker, and a literal with
   a word character right behind it (``5abc``) stays, since the marker
   would swallow what the lexer makes a second token.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Optional, Tuple

from repro.common.types import FLOAT, INT, VARCHAR, SqlType
from repro.sql.lexer import TOKEN

#: Parameter names starting with this belong to :func:`lift_literals`.
RESERVED_PREFIX = "__l"

_RESERVED_MARKER = "@" + RESERVED_PREFIX
#: A marker's type letter (rule 2) -> the type of the literal it replaced.
_MARKER_TYPES = {"i": INT, "f": FLOAT, "s": VARCHAR(None)}

#: Leading comment for a *generated* text whose literals belong to its
#: shape, not to one call (a shard's slice bounds, which the shard must see
#: as constants to prove its slice view covers them): by rule 3 every layer
#: below runs the text as written.
AS_WRITTEN = f"/* {_RESERVED_MARKER} */ "

_QUOTE_OR_DIGIT = re.compile(r"['0-9]")
_LITERAL_START = re.compile(r"'|(?<![\w@])\d")
_WORD = re.compile(r"\w")

# Clause states: where a literal may be lifted, and after which token.
_OFF, _PREDICATE, _LIST, _EXEC = range(4)
_CLAUSES = {
    "WHERE": _PREDICATE, "ON": _PREDICATE, "SET": _PREDICATE,
    "VALUES": _LIST, "EXEC": _EXEC, "EXECUTE": _EXEC,
    "SELECT": _OFF, "FROM": _OFF, "GROUP": _OFF, "HAVING": _OFF,
    "ORDER": _OFF, "WITH": _OFF, "INSERT": _OFF, "UPDATE": _OFF,
    "DELETE": _OFF,
}  # fmt: skip
_OPERAND_AFTER = (
    frozenset(),
    frozenset({"compare", "BETWEEN", "AND"}),
    frozenset({"compare", "BETWEEN", "AND", "(", ","}),
    frozenset({"compare", ",", "word", "name"}),
)


def lift_literals(text: str) -> Tuple[str, Dict[str, Any]]:
    """``(template, values)``: ``text`` with its safe-listed literals
    replaced by reserved parameter markers, and the markers' values.
    ``template is text`` (and ``values`` is empty) when nothing lifts."""
    first = _QUOTE_OR_DIGIT.search(text)
    if (
        first is None
        or _RESERVED_MARKER in text
        or _LITERAL_START.search(text, first.start()) is None
    ):
        return text, {}
    markers: Dict[Tuple[str, Any], str] = {}  # (type letter, value) -> marker
    pieces = []
    copied = 0
    state = _OFF
    saved = []  # the clause state outside each open parenthesis
    before = previous = ""  # the two tokens to the left, as operand contexts
    for match in TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "word":
            word = match.group(kind).upper()
            if word == "CREATE":
                return text, {}
            state = _CLAUSES.get(word, state)
            kind = word if word in ("BETWEEN", "AND", "IN") else kind
        elif kind == "other":
            kind = match.group(kind)
            if kind == "(":
                saved.append(state)
                if previous == "IN":
                    state = _LIST
            elif kind == ")":
                state = saved.pop() if saved else _OFF
            elif kind == ";":
                state = _OFF
                saved.clear()
        elif kind == "string" or kind == "number":
            context = before if previous in ("-", "+") else previous
            # A word character right behind it would fuse with the marker.
            if context in _OPERAND_AFTER[state] and not _WORD.match(text, match.end()):
                raw = match.group(kind)
                if kind == "string":
                    key = ("s", raw[1:-1].replace("''", "'"))
                elif "." in raw or "e" in raw or "E" in raw:
                    key = ("f", float(raw))
                else:
                    key = ("i", int(raw))
                marker = markers.get(key)
                if marker is None:
                    marker = markers[key] = f"{RESERVED_PREFIX}{key[0]}{len(markers) + 1}"
                pieces += (text[copied : match.start(kind)], "@", marker)
                copied = match.end()
            kind = "literal"
        before, previous = previous, kind
    if not markers:
        return text, {}
    pieces.append(text[copied:])
    return "".join(pieces), {marker: value for (_, value), marker in markers.items()}


def marker_type(name: str) -> Optional[SqlType]:
    """The static type of a parameter: a lifted literal's marker has its
    literal's, any other parameter (a client's, a variable) none."""
    if name.startswith(RESERVED_PREFIX):
        return _MARKER_TYPES.get(name[len(RESERVED_PREFIX) : len(RESERVED_PREFIX) + 1])
    return None


def overlay(
    values: Dict[str, Any], params: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """The caller's ``params`` over the lifted ``values``; None when the
    caller already uses a reserved name (rule 3: run its text unlifted)."""
    if not params:
        return values
    if any(name.startswith(RESERVED_PREFIX) for name in params):
        return None
    return {**values, **params}
