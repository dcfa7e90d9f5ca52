"""Per-operator execution profiles (``SET STATISTICS PROFILE ON``-style).

A profile records, for every physical operator in a plan, how many times
it was opened, how many rows it actually produced, and how much wall time
it spent — then renders the annotated plan tree with actuals next to the
optimizer's estimates, which is exactly what you need to see where a
dynamic plan's cost went wrong.

Implementation: :func:`profiled` wraps each operator *instance* in the
plan with an instrumented ``execute_batches`` (an instance attribute
shadowing the class method) for the duration of one execution, then
removes it. Timing is taken around each ``next()`` on the operator's
generator, so an operator's recorded time is inclusive of its children
but excludes time the consumer spends between chunks; the renderer
derives exclusive ("self") time by subtracting the children's inclusive
time. Every node reports rows (summed over chunks) and
``actual_batches``.

Profiling is opt-in per execution (a session flag or
``Server.profile_statements``): the instrumented path costs two timer
calls per chunk per operator, which is too much to leave on for every
query — unlike the metrics registry, which is always on.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

from repro.exec.operators import PhysicalOperator


class OperatorProfile:
    """Actuals for one operator in one profiled execution."""

    __slots__ = ("operator", "description", "estimated_rows", "actual_rows",
                 "actual_batches", "opens", "wall_seconds", "children")

    def __init__(self, operator: PhysicalOperator):
        self.operator = operator
        self.description = operator.describe()
        self.estimated_rows = operator.estimated_rows
        self.actual_rows = 0
        self.actual_batches = 0
        self.opens = 0
        self.wall_seconds = 0.0
        self.children: List["OperatorProfile"] = []

    @property
    def self_seconds(self) -> float:
        """Wall time net of children (clamped at zero against jitter)."""
        return max(0.0, self.wall_seconds - sum(c.wall_seconds for c in self.children))

    def walk(self) -> Iterator["OperatorProfile"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "operator": self.description,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "actual_batches": self.actual_batches,
            "opens": self.opens,
            "wall_ms": self.wall_seconds * 1e3,
            "self_ms": self.self_seconds * 1e3,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"<OperatorProfile {self.description} rows={self.actual_rows} "
            f"opens={self.opens} wall={self.wall_seconds * 1e3:.3f}ms>"
        )


class ExecutionProfile:
    """The per-operator profile of one statement execution."""

    def __init__(self, root: OperatorProfile):
        self.root = root

    def operators(self) -> List[OperatorProfile]:
        return list(self.root.walk())

    def render(self) -> str:
        """The annotated plan tree: actuals alongside estimates."""
        lines: List[str] = []

        def render_node(node: OperatorProfile, indent: int) -> None:
            batches = (
                f" batches={node.actual_batches}" if node.actual_batches else ""
            )
            lines.append(
                "  " * indent + node.description
                + f"  [actual rows={node.actual_rows}{batches} opens={node.opens}"
                + f" time={node.wall_seconds * 1e3:.3f}ms"
                + f" self={node.self_seconds * 1e3:.3f}ms"
                + f" est rows={node.estimated_rows:.0f}]"
            )
            for child in node.children:
                render_node(child, indent + 1)

        render_node(self.root, 0)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return self.root.to_dict()

    def __repr__(self) -> str:
        return f"<ExecutionProfile root={self.root.description!r}>"


def _build_tree(operator: PhysicalOperator) -> OperatorProfile:
    node = OperatorProfile(operator)
    node.children = [_build_tree(child) for child in operator.children]
    return node


def _instrumented_execute_batches(operator: PhysicalOperator, node: OperatorProfile):
    original = type(operator).execute_batches
    perf_counter = time.perf_counter

    def execute_batches(ctx):
        node.opens += 1
        iterator = original(operator, ctx)
        while True:
            started = perf_counter()
            try:
                chunk = next(iterator)
            except StopIteration:
                node.wall_seconds += perf_counter() - started
                return
            node.wall_seconds += perf_counter() - started
            node.actual_batches += 1
            node.actual_rows += len(chunk)
            yield chunk

    return execute_batches


@contextmanager
def profiled(root: PhysicalOperator):
    """Instrument a plan tree for one execution.

    Yields the :class:`ExecutionProfile`; actuals accumulate as the plan
    runs inside the ``with`` block. The patches are removed on exit even
    if execution raises, so cached (shared) plans are never left patched.
    """
    profile = ExecutionProfile(_build_tree(root))
    patched: List[PhysicalOperator] = []
    try:
        for node in profile.root.walk():
            node.operator.execute_batches = _instrumented_execute_batches(
                node.operator, node
            )
            patched.append(node.operator)
        yield profile
    finally:
        for operator in patched:
            operator.__dict__.pop("execute_batches", None)
