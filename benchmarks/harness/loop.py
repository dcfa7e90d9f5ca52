"""The closed loop: one client, zero think time, calibrated per chunk.

Operations run back to back. Every ``CHUNK`` operations the calibration
slice runs, and the chunk's times are scaled by the slices on either side
of it, so a burst of machine noise rescales only the operations it hit.
Replication ticks are issued inline at fixed operation indices; their time
counts toward throughput (the work shares the box) but not toward any
operation's latency (a real agent runs beside the clients, not in them).

Repetitions of one seed execute identical operations on identical state,
so the orchestrator can take the median over repetitions *per chunk and
per operation* (``combine``) instead of per run: one noisy stretch then
costs a few chunks of one repetition, not that repetition's whole vote.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchmarks.harness import calib
from benchmarks.harness.stats import median, percentile

CHUNK = 50


@dataclass
class LoopResult:
    latencies: List[float] = field(default_factory=list)  # calibrated seconds, per op
    chunk_seconds: List[float] = field(default_factory=list)  # calibrated, ops and ticks
    raw_latencies: List[float] = field(default_factory=list)  # wall seconds, per op
    raw_seconds: float = 0.0
    slices_ms: List[float] = field(default_factory=list)
    failures: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(self.chunk_seconds)


def timed_loop(
    run_op: Callable[[int], None],
    count: int,
    tick: Callable[[], None],
    tick_every: int,
    clock: Callable[[], float] = time.perf_counter,
    slice_ms: Optional[Callable[[], float]] = None,
) -> LoopResult:
    """Run operations ``0..count-1``. ``slice_ms`` runs the calibration
    slice and returns its milliseconds on ``clock`` (injected by tests)."""
    if slice_ms is None:
        slice_ms = calib.Slice().ms
    result = LoopResult()
    before = slice_ms()
    result.slices_ms.append(before)
    for first in range(0, count, CHUNK):
        chunk_raw: List[float] = []
        chunk_started = clock()
        for index in range(first, min(first + CHUNK, count)):
            started = clock()
            try:
                run_op(index)
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
                result.failures.append((index, f"{type(exc).__name__}: {exc}"))
            chunk_raw.append(clock() - started)
            if index % tick_every == tick_every - 1:
                tick()
        chunk_seconds = clock() - chunk_started
        after = slice_ms()
        result.slices_ms.append(after)
        factor = calib.scale(before, after)
        before = after
        result.raw_latencies.extend(chunk_raw)
        result.latencies.extend(value * factor for value in chunk_raw)
        result.raw_seconds += chunk_seconds
        result.chunk_seconds.append(chunk_seconds * factor)
    return result


def combine(repetitions: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise median over repetitions of identical work."""
    return [median(values) for values in zip(*repetitions)]


def timed_metrics(
    latencies: Sequence[float], chunk_seconds: Sequence[float], writes: Sequence[bool]
) -> Dict[str, float]:
    """The timed end-to-end metrics of one repetition, or of the
    ``combine``d repetitions of one seed."""
    reads = [value for value, wrote in zip(latencies, writes) if not wrote]
    written = [value for value, wrote in zip(latencies, writes) if wrote]
    return {
        "ops_s": len(latencies) / sum(chunk_seconds),
        "lat_p50_ms": median(latencies) * 1000.0,
        "lat_p95_ms": percentile(latencies, 95) * 1000.0,
        "read_p50_ms": median(reads) * 1000.0,
        "write_p50_ms": median(written) * 1000.0,
    }
