"""Order statistics for the perf ledger.

Every host-time number the ledger prints is a median with its
quartiles, minimum and sample count; percentiles above the median are
only reported when the sample supports them.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: A percentile is reported only with at least this many samples
#: strictly beyond it (choosing-metrics, section 1).
MIN_SAMPLES_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float], unit: str) -> Dict[str, object]:
    """The ledger row of one metric: median, quartiles, min, count."""
    q1, _q2, q3 = quartiles(values)
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "values": list(values),
    }


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p < 100) of ``samples``.

    Refuses (``ValueError``) when fewer than ``MIN_SAMPLES_BEYOND``
    samples lie beyond the requested rank: a p99 over 600 samples is
    six points of tail, not a measurement.
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100) (got {p})")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if len(ordered) - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(ordered)} samples leaves"
            f" {max(0, len(ordered) - rank)} beyond it;"
            f" need {MIN_SAMPLES_BEYOND}"
        )
    return ordered[rank - 1]
