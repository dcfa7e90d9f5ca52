"""Calibrated time: wall time rescaled by a fixed slice of interpreter work.

Raw wall time does not repeat on a shared two-core box (README, "Noise"):
the same operations take up to twice as long from one tenth of a second to
the next, depending on what the neighbours do. So every chunk of the timed
loop is bracketed by a fixed *slice* of work, and the chunk's seconds are
multiplied by ``CALIB_REF_MS / slice_ms``: "seconds as if the slice took
``CALIB_REF_MS``".

The slice has to slow down by the same factor as the engine does, or the
scaling over- or under-corrects. A tight arithmetic loop does not (it
slowed 1.7x where the engine slowed 1.4x); the slice below is shaped like
the engine's own work instead, and was kept because chunk time moved with
it almost one to one (README, "Noise", has the fits).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

#: The slice's nominal duration. A constant of the benchmark, never
#: re-tuned: changing it rescales every timed metric ever recorded.
CALIB_REF_MS = 2.5

_ROWS: List[Tuple[int, str, int, float]] = [
    (index, f"name{index % 97}", index % 13, float(index % 101)) for index in range(40_000)
]
_WINDOW = 15000
_TREES = 30
_TEXT = "SELECT i_id, i_title FROM item, author WHERE i_a_id = a_id AND i_subject = @s ORDER BY i_title"


class _Sum:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: object, right: object) -> None:
        self.op = op
        self.left = left
        self.right = right


def _matching(rows, low: int):
    for row in rows:
        if row[2] > low:
            yield row


def _depth(node: object) -> int:
    if isinstance(node, _Node):
        return 1 + max(_depth(node.left), _depth(node.right))
    return 0


class Slice:
    """The calibration slice. Each call works on the next window of a
    table far larger than the window, so it stays as cache-cold as the
    engine's scans; the work per call is otherwise identical."""

    def __init__(self) -> None:
        self._start = 0

    def work(self) -> int:
        start = self._start
        self._start = (start + _WINDOW) % (len(_ROWS) - _WINDOW)
        # Executor-shaped: generator pipeline, hash aggregation, sort.
        groups: Dict[str, _Sum] = {}
        for row in _matching(_ROWS[start : start + _WINDOW], 3):
            entry = groups.get(row[1])
            if entry is None:
                entry = groups[row[1]] = _Sum()
            entry.count += 1
            entry.total += row[3]
        ranked = sorted(
            ((name, entry.count, entry.total) for name, entry in groups.items()),
            key=lambda item: (-item[1], item[0]),
        )[:10]
        # Parser/optimizer-shaped: tokenise, build and walk a small tree.
        depth = 0
        for _ in range(_TREES):
            tree: object = None
            for token in _TEXT.split() * 3:
                tree = _Node(token.lower(), tree, (token, len(token)))
            depth += _depth(tree)
        return len(ranked) + depth

    def ms(self) -> float:
        """Run the slice once; its duration in milliseconds."""
        started = time.perf_counter()
        self.work()
        return (time.perf_counter() - started) * 1000.0


def scale(before_ms: float, after_ms: float) -> float:
    """Factor turning wall seconds measured between two slices into
    calibrated seconds."""
    return CALIB_REF_MS / ((before_ms + after_ms) / 2.0)
