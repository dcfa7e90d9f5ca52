"""``repro.obs`` — the unified observability subsystem.

Four pillars, one package:

* :mod:`repro.obs.metrics` — thread-safe metrics registry (counters,
  gauges, fixed-bucket histograms). Every
  :class:`~repro.engine.server.Server` owns one, fed by a lock-free
  statement log; the old ``total_work`` counters are a facade over it.
* :mod:`repro.obs.tracing` — structured trace spans, opened only inside a
  requested trace, propagated across linked-server calls via context
  variables and exported through a bounded ring buffer.
* :mod:`repro.obs.profile` — opt-in per-operator execution profiles
  (actual rows / opens / wall time per plan operator), rendered as an
  annotated plan tree.
* :mod:`repro.obs.replication_metrics` — per-subscriber replication lag
  gauges, apply-batch histograms and distribution-queue depth.

:mod:`repro.obs.export` snapshots all of it to JSON (also:
``python -m repro metrics``).
"""

from repro.obs.metrics import (
    Counter,
    CounterGroupView,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.tracing import (
    Span,
    SpanCollector,
    Tracer,
    active_span,
    format_trace,
    global_collector,
)

__all__ = [
    "Counter",
    "CounterGroupView",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "Span",
    "SpanCollector",
    "Tracer",
    "active_span",
    "format_trace",
    "global_collector",
]
