"""Order statistics for the harness: percentiles that refuse thin tails,
and the run-to-run spread the bounds are judged against."""

from __future__ import annotations

import math
import statistics
from statistics import median  # noqa: F401 - the harness's one median
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples``.

    Raises ``ValueError`` when fewer than ``MIN_BEYOND`` samples lie beyond
    the requested rank: such a tail value is one or two outliers, not a
    percentile (this is why p99 is printed as raw only).
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), not {pct}")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    beyond = len(ordered) - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0.0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0
