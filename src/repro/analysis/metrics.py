"""Metrics: latency summaries.

The paper experiments' measurement window lives with them, in
:func:`repro.workloads.experiments.measure`.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"p must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    interpolated = ordered[low] * (1 - weight) + ordered[high] * weight
    # Clamp: float interpolation may land an ulp outside the sample.
    return min(max(interpolated, ordered[0]), ordered[-1])


def summarize_latencies(latencies: Sequence[float]) -> Dict[str, float]:
    """mean / p50 / p95 / max of a latency sample, in seconds."""
    if not latencies:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    return {
        "count": len(latencies),
        "mean": sum(latencies) / len(latencies),
        "p50": percentile(latencies, 50),
        "p95": percentile(latencies, 95),
        "max": max(latencies),
    }
