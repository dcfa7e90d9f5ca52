"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per server (plus a process-global registry
for components that do not belong to a server, like the DTC). The design
goals, in order:

1. **Always-on.** Recording a metric must be cheap enough that nothing in
   the engine needs a "profiling build". Hot per-row loops keep using the
   plain :class:`~repro.exec.context.WorkCounters` dataclass; the registry
   is touched at statement/batch granularity only.
2. **Thread-safe.** Each metric guards its state with its own lock, so a
   multi-threaded load driver and a background replication agent can
   record concurrently without corrupting counts.
3. **Exportable.** ``snapshot()`` renders every metric to plain dicts that
   serialize to JSON untouched (the export API and the ``python -m repro
   metrics`` CLI build on this).

Metric identity is ``name`` plus an optional ``labels`` mapping; the same
(name, labels) pair always returns the same metric object, so callers may
either hold on to the object (hot paths) or re-look it up (cold paths).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.common.locks import mutex

#: Default histogram buckets for statement/operation latencies (seconds).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


def _metric_key(name: str, labels: Optional[Mapping[str, Any]]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count (resettable for calibration runs)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = mutex()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    def set(self, value: int) -> None:
        """Overwrite the count (work-counter facade and resets only)."""
        with self._lock:
            self._value = value

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self.set(0)

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self._value}>"


class Gauge:
    """A value that goes up and down (queue depth, replication lag)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = mutex()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self.set(0.0)

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self._value}>"


class Histogram:
    """Fixed-bucket histogram: counts of observations per upper bound.

    ``buckets`` is a sorted tuple of inclusive upper bounds; one implicit
    overflow bucket (``+Inf``) catches everything beyond the last bound.
    Observation cost is one ``bisect`` plus a locked pair of adds, which
    keeps it safe for per-statement use.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "_lock")

    def __init__(self, name: str, buckets: Iterable[float] = LATENCY_BUCKETS):
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self._lock = mutex()

    def observe(self, value: float) -> None:
        position = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[position] += 1
            self.count += 1
            self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.buckets) + 1)
            self.count = 0
            self.sum = 0.0

    def snapshot(self) -> Dict[str, Any]:
        bounds = [str(bound) for bound in self.buckets] + ["+Inf"]
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "buckets": dict(zip(bounds, list(self.counts))),
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.6f}>"


class MetricsRegistry:
    """A namespace of metrics with get-or-create semantics."""

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._lock = mutex()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Write-behind aggregators (CounterGroupView) register a flush
        # callback so snapshot()/reset() always see settled values.
        self._flush_hooks: list = []

    def register_flush(self, hook) -> None:
        """Register a callback invoked before snapshot() and reset()."""
        self._flush_hooks.append(hook)

    def flush(self) -> None:
        for hook in self._flush_hooks:
            hook()

    def counter(self, name: str, labels: Optional[Mapping[str, Any]] = None) -> Counter:
        key = _metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter(key))
        return metric

    def gauge(self, name: str, labels: Optional[Mapping[str, Any]] = None) -> Gauge:
        key = _metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge(key))
        return metric

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = LATENCY_BUCKETS,
        labels: Optional[Mapping[str, Any]] = None,
    ) -> Histogram:
        key = _metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(key, Histogram(key, buckets))
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """Render every metric to a JSON-ready dict."""
        self.flush()
        return {
            "namespace": self.namespace,
            "counters": {key: c.value for key, c in sorted(self._counters.items())},
            "gauges": {key: g.value for key, g in sorted(self._gauges.items())},
            "histograms": {
                key: h.snapshot() for key, h in sorted(self._histograms.items())
            },
        }

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero every metric (or those whose name starts with ``prefix``)."""
        self.flush()
        for family in (self._counters, self._gauges, self._histograms):
            for key, metric in family.items():
                if prefix is None or key.startswith(prefix):
                    metric.reset()

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {self.namespace!r} counters={len(self._counters)} "
            f"gauges={len(self._gauges)} histograms={len(self._histograms)}>"
        )


class CounterGroupView:
    """Attribute-style facade over a group of registry counters.

    Lets ``server.total_work.rows_processed`` keep working — reads and
    ``+=`` writes included — while the registry is the single source of
    truth for exported values.

    Writes are **write-behind**: ``merge``/``inc`` accumulate into a
    pending-delta dict under one lock (one acquire per statement instead
    of one per touched counter) and the deltas settle into the registry
    counters on ``flush`` — which runs on every read, on ``snapshot`` and
    automatically before ``MetricsRegistry.snapshot()``/``reset()``. Hot
    paths therefore pay a dict-scan plus one lock; readers always see
    settled values.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str, fields: Iterable[str]):
        counters = {name: registry.counter(f"{prefix}.{name}") for name in fields}
        object.__setattr__(self, "_counters", counters)
        object.__setattr__(self, "_pending", dict.fromkeys(counters, 0))
        object.__setattr__(self, "_lock", mutex())
        registry.register_flush(self.flush)

    def flush(self) -> None:
        """Settle pending deltas into the registry counters."""
        pending = self._pending
        with self._lock:
            for name, delta in pending.items():
                if delta:
                    self._counters[name].inc(delta)
                    pending[name] = 0

    def __getattr__(self, name: str) -> int:
        counters = self._counters
        if name not in counters:
            raise AttributeError(name)
        self.flush()
        return counters[name].value

    def __setattr__(self, name: str, value: int) -> None:
        counter = self._counters.get(name)
        if counter is None:
            raise AttributeError(f"unknown work counter {name!r}")
        with self._lock:
            self._pending[name] = 0
        counter.set(value)

    def inc(self, name: str, amount: int = 1) -> None:
        """Bump one counter: the cheap single-field write for hot paths.

        ``view.X += 1`` works but costs a settled read *and* a write;
        ``view.inc("X")`` is one locked dict add.
        """
        with self._lock:
            self._pending[name] += amount

    def merge(self, other: Any) -> None:
        """Add a per-execution ``WorkCounters``: one dict scan under a
        single lock, adds for non-zero fields."""
        pending = self._pending
        with self._lock:
            for name, delta in other.__dict__.items():
                if delta:
                    pending[name] += delta

    def reset(self) -> None:
        with self._lock:
            for name in self._pending:
                self._pending[name] = 0
        for counter in self._counters.values():
            counter.reset()

    def snapshot(self) -> Dict[str, int]:
        self.flush()
        return {name: counter.value for name, counter in self._counters.items()}

    def __repr__(self) -> str:
        return f"<CounterGroupView {self.snapshot()}>"


_GLOBAL_REGISTRY = MetricsRegistry(namespace="global")


def global_registry() -> MetricsRegistry:
    """The process-wide registry for components without a server."""
    return _GLOBAL_REGISTRY
