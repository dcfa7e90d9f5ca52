"""Spans around the layers' public entry points, recorded from here.

Nothing under ``src/`` knows about this file: ``SpanRecorder.install``
replaces each method named in :data:`ENTRY_POINTS` with a wrapper that
records ``(trace id, span id, parent id, layer, method, start, end)``. One
operation of the workload is one trace. A span opened on a thread with no
open span of its own (the wire server's per-connection worker) takes the
client thread's innermost open span as its parent: with one client there
is exactly one operation in flight, and the client is blocked inside that
span for as long as the server thread works on it.

A layer's *self time* is its spans' duration minus the part their child
spans cover; summed over layers it accounts for the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

Span = Tuple[int, int, Optional[int], str, str, float, float]

#: The layer of the harness's own per-operation root span: application
#: code between statements (TPCWApplication, parameter building).
APP_LAYER = "harness.app"

ALL = frozenset({"browse_inproc", "order_inproc", "shop_tcp", "adhoc_partial", "shop_sharded"})
#: Workloads whose cache servers reach the backend over a linked server.
#: The shards of ``shop_sharded`` never do: what a shard cannot answer, the
#: router sends to the backend itself.
LINKED = ALL - {"shop_sharded"}
NONE: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped method. ``by_role`` splits the layer into
    ``<layer>.backend`` / ``<layer>.cache`` by the receiving server's
    name; ``expected`` lists the workloads on which zero calls means the
    table (or the stack under it) is wrong."""

    layer: str
    module: str
    cls: str
    method: str
    expected: FrozenSet[str]
    by_role: bool = False


_ENGINE = "repro.engine.server"
_LINK = "repro.distributed.linked_server"

ENTRY_POINTS: List[EntryPoint] = [
    EntryPoint("client", "repro.client.connection", "Cursor", "execute", ALL),
    EntryPoint("client.pool", "repro.client.pool", "ConnectionPool", "acquire",
               frozenset({"order_inproc"})),
    EntryPoint("client.pool", "repro.client.pool", "ConnectionPool", "release",
               frozenset({"order_inproc"})),
    EntryPoint("shard_router", "repro.client.shard_router", "ShardRouter", "execute",
               frozenset({"shop_sharded"})),
    EntryPoint("resilience", "repro.resilience.failover", "FailoverRouter", "execute",
               frozenset({"shop_sharded"})),
    EntryPoint("net", "repro.net.wire", "WireConnection", "execute",
               frozenset({"shop_tcp"})),
    EntryPoint("mtcache", "repro.mtcache.cache_server", "CacheServer", "execute", ALL),
    EntryPoint("engine", _ENGINE, "Server", "execute", ALL, by_role=True),
    EntryPoint("engine", _ENGINE, "Server", "execute_prepared", LINKED, by_role=True),
    EntryPoint("engine", _ENGINE, "Server", "prepare_sql", NONE, by_role=True),
    EntryPoint("engine", _ENGINE, "Server", "execute_remote_sql", NONE, by_role=True),
    EntryPoint("optimizer", _ENGINE, "Server", "plan_select", ALL),
    EntryPoint("exec", "repro.exec.operators", "BatchCursor", "next_batch", ALL),
    EntryPoint("distributed", _LINK, "ServerLink", "execute_remote_sql", NONE),
    EntryPoint("distributed", _LINK, "ServerLink", "execute_statement_text",
               LINKED - {"adhoc_partial"}),
    EntryPoint("distributed", _LINK, "ServerLink", "prepare", LINKED),
    EntryPoint("distributed", _LINK, "RemoteStatementHandle", "execute", LINKED),
    EntryPoint("distributed", _LINK, "RemoteStatementHandle", "execute_rows", LINKED),
    EntryPoint("replication", "repro.mtcache.deployment", "MTCacheDeployment", "tick", ALL),
    EntryPoint("replication", "repro.sharding.deployment", "ShardedDeployment", "tick",
               frozenset({"shop_sharded"})),
]


class EntryPointError(RuntimeError):
    """A listed method is missing, or was never called where expected."""


class _Stack(threading.local):
    def __init__(self) -> None:
        self.open: List[int] = []


class SpanRecorder:
    """Records spans in memory; aggregation happens after the run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.trace_id = 0
        self._ids = itertools.count(1)
        self._stack = _Stack()
        self._client_open = self._stack.open  # the installing thread's stack
        self._undo: List[Tuple[type, str, Callable]] = []

    # -- recording ---------------------------------------------------------

    def open_span(self) -> Tuple[int, Optional[int], List[int], float]:
        stack = self._stack.open
        if stack:
            parent: Optional[int] = stack[-1]
        elif stack is not self._client_open and self._client_open:
            parent = self._client_open[-1]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack, self.clock()

    def close_span(self, opened, layer: str, method: str = "") -> None:
        ended = self.clock()
        span_id, parent, stack, started = opened
        stack.pop()
        self.spans.append((self.trace_id, span_id, parent, layer, method, started, ended))

    def as_trace(self, run_op: Callable[[int], None]) -> Callable[[int], None]:
        """``run_op`` with each operation made one trace under a root span."""

        def traced(index: int) -> None:
            self.trace_id = index
            opened = self.open_span()
            try:
                run_op(index)
            finally:
                self.close_span(opened, APP_LAYER)

        return traced

    def wrap(self, function: Callable, layer: str, by_role: bool, name: str) -> Callable:
        backend_layer, cache_layer = f"{layer}.backend", f"{layer}.cache"

        @functools.wraps(function)
        def traced(receiver, *args, **kwargs):
            if by_role:
                is_backend = getattr(receiver, "name", None) == "backend"
                span_layer = backend_layer if is_backend else cache_layer
            else:
                span_layer = layer
            opened = self.open_span()
            try:
                return function(receiver, *args, **kwargs)
            finally:
                self.close_span(opened, span_layer, name)

        return traced

    # -- installation ------------------------------------------------------

    def install(self, entry_points: List[EntryPoint] = ENTRY_POINTS) -> None:
        for entry in entry_points:
            owner = getattr(importlib.import_module(entry.module), entry.cls, None)
            function = None if owner is None else owner.__dict__.get(entry.method)
            if not callable(function):
                self.uninstall()
                raise EntryPointError(
                    f"entry point {entry.module}.{entry.cls}.{entry.method} "
                    f"({entry.layer}) does not exist"
                )
            name = f"{entry.cls}.{entry.method}"
            setattr(owner, entry.method, self.wrap(function, entry.layer, entry.by_role, name))
            self._undo.append((owner, entry.method, function))

    def uninstall(self) -> None:
        while self._undo:
            owner, method, function = self._undo.pop()
            setattr(owner, method, function)

    def calls(self) -> Dict[str, int]:
        """Recorded calls per wrapped method (``Class.method``)."""
        return Counter(span[4] for span in self.spans if span[4])

    def check_expected(
        self, workload: str, entry_points: List[EntryPoint] = ENTRY_POINTS
    ) -> None:
        calls = self.calls()
        for entry in entry_points:
            name = f"{entry.cls}.{entry.method}"
            if workload in entry.expected and not calls[name]:
                raise EntryPointError(
                    f"{name} ({entry.layer}) recorded zero calls on {workload}, "
                    f"where the entry-point table expects calls"
                )


@dataclass
class LayerBudget:
    """What one traced run's spans add up to."""

    self_seconds: Dict[str, float]
    span_counts: Dict[str, int]
    root_seconds: float  # wall time covered by parentless spans
    local_statements: int  # mtcache spans with no distributed descendant
    mtcache_statements: int


def budget(spans: List[Span]) -> LayerBudget:
    """Self time per layer.

    ``spans`` must list children before parents, which append-on-close
    guarantees (a cross-thread child closes while its parent blocks).
    """
    child_seconds: Dict[int, float] = defaultdict(float)
    went_remote: Dict[int, bool] = defaultdict(bool)
    self_seconds: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    root_seconds = 0.0
    local = statements = 0
    for _, span_id, parent, layer, _, started, ended in spans:
        duration = ended - started
        self_seconds[layer] += duration - child_seconds.pop(span_id, 0.0)
        counts[layer] += 1
        remote = went_remote.pop(span_id, False) or layer == "distributed"
        if layer == "mtcache":
            statements += 1
            local += not remote
        if parent is None:
            root_seconds += duration
        else:
            child_seconds[parent] += duration
            went_remote[parent] = went_remote[parent] or remote
    return LayerBudget(dict(self_seconds), dict(counts), root_seconds, local, statements)
