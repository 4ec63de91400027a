"""Metrics: unit conversion, latency summaries, periodic sampling.

The paper experiments' measurement window lives with them, in
:func:`repro.workloads.experiments.measure`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence


def mbps(bits: float, seconds: float) -> float:
    """Bits over a window, in megabits per second."""
    if seconds <= 0:
        return 0.0
    return bits / seconds / 1e6


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


class Sampler:
    """Collect ``fn()`` every ``interval_s`` of simulated time.

    >>> # sampler = Sampler(sim, 1.0, lambda: element.cpu_utilization())
    >>> # ...run sim... sampler.values -> one reading per second
    """

    def __init__(self, sim, interval_s: float, fn: Callable[[], float],
                 start: Optional[float] = None):
        self.sim = sim
        self.fn = fn
        self.times: List[float] = []
        self.values: List[float] = []
        self._handle = sim.every(interval_s, self._sample, start=start)

    def _sample(self) -> None:
        self.times.append(self.sim.now)
        self.values.append(self.fn())

    def stop(self) -> None:
        self._handle.cancel()

    def mean(self) -> float:
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None
