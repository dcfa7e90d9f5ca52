"""Structured trace spans with parent/child linkage.

One TPC-W interaction executed through a cache server fans out across
tiers: parse and optimize on the mid tier, local execution against cached
views, shipped remote SQL on the backend, forwarded DML inside a 2PC.
Tracing stitches those pieces back into one tree, on OpenTelemetry's span
model cut down to what this codebase needs:

* A :class:`Span` carries ids (trace/span/parent), a service name (which
  server produced it), wall-clock bounds, a status and attributes.
* The *active* span lives in a :mod:`contextvars` context variable and a
  new span adopts it as parent; linked-server calls are in-process, so
  the backend's spans nest under the mid-tier span that shipped the SQL.
* Finished spans land in a bounded ring-buffer :class:`SpanCollector`
  (by default one process-global collector shared by every tracer, so a
  cross-server trace exports in one piece).

A trace is opened on request: :meth:`Tracer.span` always opens a span,
roots included, and is how a caller (the TPC-W driver, a test) asks for
one. The engine's own sites call :meth:`Tracer.child_span`, which hands
out the shared no-op :data:`NULL_SPAN` unless a span is active: an
untraced statement pays one context-variable read per site and leaves
the ring empty. A disabled tracer (``tracer.enabled = False``) hands out
:data:`NULL_SPAN` from both.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterable, List, Optional

_ids = itertools.count(1)

#: The currently active span in this execution context (None at top level).
_ACTIVE: ContextVar[Optional["Span"]] = ContextVar("repro_obs_active_span", default=None)


def active_span() -> Optional["Span"]:
    """The innermost open span in the current context, if any."""
    return _ACTIVE.get()


class Span:
    """One timed operation within a trace — and its own context manager.

    ``Tracer.span`` hands out an unopened span; entering it adopts the
    active span as parent, takes the ids and the start time and makes it
    the active span; leaving it records the end (and an escaping error),
    restores the previous active span and hands it to its collector. One
    object per span: a traced statement opens several, so a plain
    ``__slots__`` class with no separate context object.
    """

    __slots__ = (
        "name",
        "service",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "status",
        "attributes",
        "_collector",
        "_token",
    )

    def __init__(
        self,
        name: str,
        service: str,
        attributes: Dict[str, Any],
        collector: Optional["SpanCollector"] = None,
    ):
        self.name = name
        self.service = service
        self.attributes = attributes
        self._collector = collector
        self.trace_id = self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start = 0.0
        self.end: Optional[float] = None
        self.status = "ok"
        self._token: Any = None

    def __enter__(self) -> "Span":
        parent = _ACTIVE.get()
        self.span_id = span_id = next(_ids)
        if parent is None:
            self.trace_id = span_id
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.start = time.perf_counter()
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", repr(exc))
        _ACTIVE.reset(self._token)
        # The ring keeps finished spans; it need not keep their tokens.
        self._token = None
        self._collector.record(self)
        return False

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        # Long string attributes (full SQL text) are trimmed at export
        # time so recording them stays free on the hot path.
        attributes = {
            key: _trim(value) if isinstance(value, str) else value
            for key, value in self.attributes.items()
        }
        return {
            "name": self.name,
            "service": self.service,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "duration_seconds": self.duration,
            "status": self.status,
            "attributes": attributes,
        }

    def __repr__(self) -> str:
        return (
            f"<Span {self.service}/{self.name} trace={self.trace_id} "
            f"id={self.span_id} parent={self.parent_id} {self.status}>"
        )


class SpanCollector:
    """A bounded ring buffer of finished spans (the exporter)."""

    def __init__(self, capacity: int = 4096):
        self._spans: "deque[Span]" = deque(maxlen=capacity)

    def record(self, span: Span) -> None:
        self._spans.append(span)

    def spans(self) -> List[Span]:
        return list(self._spans)

    def trace(self, trace_id: int) -> List[Span]:
        """All finished spans of one trace, in span-id (creation) order."""
        return sorted(
            (span for span in self._spans if span.trace_id == trace_id),
            key=lambda span: span.span_id,
        )

    def latest_trace_id(self) -> Optional[int]:
        if not self._spans:
            return None
        return self._spans[-1].trace_id

    def export(self, trace_id: Optional[int] = None) -> List[Dict[str, Any]]:
        """JSON-ready dicts for one trace (or the whole buffer)."""
        spans = self.trace(trace_id) if trace_id is not None else self.spans()
        return [span.to_dict() for span in spans]

    def clear(self) -> None:
        self._spans.clear()

    def __len__(self) -> int:
        return len(self._spans)


_GLOBAL_COLLECTOR = SpanCollector()


def global_collector() -> SpanCollector:
    """The shared collector every tracer exports to by default."""
    return _GLOBAL_COLLECTOR


class _NullSpanContext:
    """Shared no-op context manager: a disabled tracer's span, and an
    engine site's outside a trace."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpanContext()


@contextmanager
def propagated_trace(trace_id: int, span_id: int, service: str = "remote"):
    """Adopt a trace context received from another process.

    The wire protocol ships ``(trace_id, span_id)`` of the client's active
    span in each request frame; the server side wraps request handling in
    this context manager so its spans become children of the client span —
    the cross-process analogue of the free in-process propagation the
    module docstring describes. The synthetic parent is never recorded
    (the client already recorded the real span); it only exists to seed
    ``_ACTIVE`` for the next :class:`Span` to parent under.
    """
    parent = Span("(remote-parent)", service, {})
    parent.trace_id, parent.span_id = trace_id, span_id
    parent.start = time.perf_counter()
    token = _ACTIVE.set(parent)
    try:
        yield parent
    finally:
        _ACTIVE.reset(token)


class Tracer:
    """Creates spans on behalf of one service (one server, usually)."""

    def __init__(
        self,
        service: str,
        collector: Optional[SpanCollector] = None,
        enabled: bool = True,
    ):
        self.service = service
        self.collector = collector if collector is not None else _GLOBAL_COLLECTOR
        self.enabled = enabled

    def span(self, name: str, **attributes: Any):
        """Open a span: a child of the active span, else a trace's root."""
        if not self.enabled:
            return NULL_SPAN
        return Span(name, self.service, attributes, self.collector)

    def child_span(self, name: str, **attributes: Any):
        """Open a span only inside a trace someone asked for: a child of
        the active span, else :data:`NULL_SPAN` (the engine's sites)."""
        if not self.enabled or _ACTIVE.get() is None:
            return NULL_SPAN
        return Span(name, self.service, attributes, self.collector)


def _trim(text: str, limit: int = 120) -> str:
    """Collapse whitespace and truncate (for SQL text in exports)."""
    collapsed = " ".join(text.split())
    if len(collapsed) <= limit:
        return collapsed
    return collapsed[: limit - 3] + "..."


def format_trace(spans: Iterable[Span]) -> str:
    """Render a trace as an indented tree (diagnostics and tests)."""
    spans = list(spans)
    by_parent: Dict[Optional[int], List[Span]] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in ids else None
        by_parent.setdefault(parent, []).append(span)

    lines: List[str] = []

    def render(parent: Optional[int], indent: int) -> None:
        for span in sorted(by_parent.get(parent, []), key=lambda s: s.span_id):
            marker = "" if span.status == "ok" else f" !{span.status}"
            lines.append(
                "  " * indent
                + f"{span.service}/{span.name} ({span.duration * 1e3:.3f} ms){marker}"
            )
            render(span.span_id, indent + 1)

    render(None, 0)
    return "\n".join(lines)
