"""The metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per server (plus a process-global registry
for components that do not belong to a server, like the DTC). The design
goals, in order:

1. **Free on the statement path.** Hot per-row loops keep using the
   plain :class:`~repro.exec.context.WorkCounters` dataclass; each
   statement-path site makes one lock-free append to a server's
   :class:`StatementLog`, folded into the registry's metrics on read.
2. **Thread-safe.** A metric's updates, and each fold, take the
   metric's lock, so load-driver threads and a replication agent can
   record concurrently without losing a count.
3. **Exportable.** ``snapshot()`` renders every metric to plain dicts that
   serialize to JSON untouched (the export API and the ``python -m repro
   metrics`` CLI build on this).

Metric identity is ``name`` plus an optional ``labels`` mapping; the same
(name, labels) pair always returns the same metric object.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.locks import mutex

#: Default histogram buckets for statement/operation latencies (seconds).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Buckets for counts of rows (``exec.batch_rows``: rows per drained chunk).
ROW_BUCKETS: Tuple[int, ...] = (1, 8, 64, 256, 1024, 4096)

#: Records a :class:`StatementLog` holds before the writer whose append
#: passes the bound folds them, so a registry nobody reads stays bounded.
LOG_BOUND = 1024


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

    def observe_all(self, values: List[float]) -> None:
        """Observe every value in ``values`` under one lock acquisition."""
        buckets = self.buckets
        positions = [bisect_left(buckets, value) for value in values]
        total = sum(values)
        with self._lock:
            counts = self.counts
            for position in positions:
                counts[position] += 1
            self.count += len(positions)
            self.sum += total

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
        # Write-behind logs (StatementLog) register a flush callback so
        # snapshot()/reset() always see settled values.
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


class StatementLog:
    """The write-behind log of one server's statement-path metrics.

    A writer makes one ``deque.append`` per site and takes no lock (deque
    appends are thread-safe). :meth:`fold` drains the log with
    ``popleft`` (each record lands in exactly one fold) and adds what it
    drained to the registry's counters and histograms, one locked update
    per metric. Folds run on every registry flush (``snapshot()``,
    ``reset()``), on every :class:`CounterGroupView` read, and in the
    writer whose append passes :data:`LOG_BOUND`; a fold holds no lock of
    its own, so one racing another may return before the other's records
    land. A record is one of:

    * ``(name, amount)``: ``amount`` more on work counter ``name``;
    * a work object (a ``WorkCounters``): each field's delta;
    * ``(work, chunk_sizes, memo_hits, memo_misses, seconds)``: one
      statement, everything it ran included: its work, one
      ``exec.batches`` and ``exec.batch_rows`` sample per chunk its plans
      yielded, its kernel-memo hits and misses, and its seconds;
    * a ``float``: the seconds of one statement whose work a statement
      record of its caller carries (a procedure body's).

    A work object is logged once its execution is over; nothing writes
    it after that.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str, fields: Iterable[str]):
        self.registry = registry
        self.counters = {name: registry.counter(f"{prefix}.{name}") for name in fields}
        self._records: "deque[Any]" = deque()
        registry.register_flush(self.fold)

    def append(self, record: Any) -> None:
        """Log one record: a lock-free append, and a fold past the bound."""
        records = self._records
        records.append(record)
        if len(records) > LOG_BOUND:
            self.fold()

    def __len__(self) -> int:
        return len(self._records)

    def fold(self) -> None:
        """Drain the log into the registry's metrics."""
        records = self._records
        if not records:
            return
        drained = []
        pop = records.popleft
        try:
            for _ in range(len(records)):
                drained.append(pop())
        except IndexError:  # a concurrent fold drained the rest
            pass
        amounts = dict.fromkeys(self.counters, 0)
        works = []
        seconds: List[float] = []
        chunks: List[int] = []
        hits = misses = 0
        for record in drained:
            kind = type(record)
            if kind is float:
                seconds.append(record)
            elif kind is not tuple:
                works.append(record)
            elif len(record) == 2:
                amounts[record[0]] += record[1]
            else:
                work, sizes, memo_hits, memo_misses, statement_seconds = record
                works.append(work)
                seconds.append(statement_seconds)
                chunks.extend(sizes)
                hits += memo_hits
                misses += memo_misses
        for name, counter in self.counters.items():
            delta = amounts[name]
            if works:
                delta += sum(map(attrgetter(name), works))
            if delta:
                counter.inc(delta)
        registry = self.registry
        if seconds:
            registry.histogram("engine.statement_seconds").observe_all(seconds)
        if chunks:
            registry.counter("exec.batches").inc(len(chunks))
            registry.histogram("exec.batch_rows", ROW_BUCKETS).observe_all(chunks)
        if hits:
            registry.counter("exec.compiled_cache_hits").inc(hits)
        if misses:
            registry.counter("exec.compiled_cache_misses").inc(misses)


class CounterGroupView:
    """Attribute-style facade over a group of registry counters.

    Lets ``server.total_work.rows_processed`` keep working — reads and
    ``+=`` writes included — while the registry is the single source of
    truth for exported values. Writes are **write-behind**: ``inc`` and
    ``merge`` append one record to the view's :class:`StatementLog`
    (``log``), with no lock; every read folds the log first, so readers
    always see settled values.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str, fields: Iterable[str]):
        log = StatementLog(registry, prefix, fields)
        object.__setattr__(self, "log", log)
        object.__setattr__(self, "_counters", log.counters)

    def __getattr__(self, name: str) -> int:
        counters = self._counters
        if name not in counters:
            raise AttributeError(name)
        self.log.fold()
        return counters[name].value

    def __setattr__(self, name: str, value: int) -> None:
        counter = self._counters.get(name)
        if counter is None:
            raise AttributeError(f"unknown work counter {name!r}")
        self.log.fold()
        counter.set(value)

    def inc(self, name: str, amount: int = 1) -> None:
        """Bump one counter: one lock-free append (``view.X += 1`` costs
        a settled read *and* a write)."""
        if name not in self._counters:
            raise AttributeError(f"unknown work counter {name!r}")
        self.log.append((name, amount))

    def merge(self, other: Any) -> None:
        """Add a per-execution ``WorkCounters``, finished: one append."""
        self.log.append(other)

    def reset(self) -> None:
        self.log.fold()
        for counter in self._counters.values():
            counter.reset()

    def snapshot(self) -> Dict[str, int]:
        self.log.fold()
        return {name: counter.value for name, counter in self._counters.items()}

    def __repr__(self) -> str:
        return f"<CounterGroupView {self.snapshot()}>"


_GLOBAL_REGISTRY = MetricsRegistry(namespace="global")


def global_registry() -> MetricsRegistry:
    """The process-wide registry for components without a server."""
    return _GLOBAL_REGISTRY
