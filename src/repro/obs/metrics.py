"""Typed metrics primitives and the registry that owns them.

The controller, switches, simulator and baselines all publish their
operational state through one :class:`MetricsRegistry` -- the paper's
service-aware monitoring story (Section IV.C/IV.D) applied to the
control plane itself.  Three metric kinds cover everything the
reproduction measures:

* :class:`Counter`  -- monotonically increasing event counts
  (packet-ins, rule installs, blocked flows),
* :class:`Gauge`    -- point-in-time values, either pushed with
  ``set()`` or pulled lazily from a callback (flow-table occupancy,
  live sessions),
* :class:`Histogram` -- value distributions with p50/p95/p99
  (packet-in handling latency, flow-setup rule counts) and a
  ``time()`` context manager driven by a pluggable clock, so the same
  type times wall-clock hot paths and simulated-time spans alike.

Snapshots are immutable, mergeable (multi-run/multi-shard
aggregation), and feed the JSON and Prometheus exporters in
:mod:`repro.obs.export`.

Determinism note: histograms keep a bounded sample reservoir using
*stride* decimation (every k-th observation once full), never random
sampling -- identical observation sequences produce byte-identical
snapshots.  In practice that makes every sim-clock metric reproduce
exactly across runs of the deterministic simulator; wall-clock timers
(``perf_counter``) measure this process's real compute cost and
naturally vary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricKey",
    "MetricSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PERCENTILES",
]

PERCENTILES = (50.0, 95.0, 99.0)
DEFAULT_MAX_SAMPLES = 4096


def _labels_key(labels: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class MetricKey:
    """Registry identity of one metric: name plus sorted label pairs."""

    name: str
    labels: Tuple[Tuple[str, str], ...] = ()

    def __str__(self) -> str:
        if not self.labels:
            return self.name
        rendered = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{rendered}}}"


def percentile(sorted_samples: Tuple[float, ...], p: float) -> float:
    """Nearest-rank percentile over an ascending-sorted sample tuple."""
    if not sorted_samples:
        return 0.0
    if p <= 0:
        return sorted_samples[0]
    rank = int(-(-(p / 100.0 * len(sorted_samples)) // 1))  # ceil
    index = min(len(sorted_samples), max(1, rank)) - 1
    return sorted_samples[index]


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("key", "help", "_value")

    def __init__(self, key: MetricKey, help: str = ""):
        self.key = key
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.key} cannot decrease (by {amount})")
        self._value += amount

    def snapshot(self) -> "MetricSnapshot":
        return MetricSnapshot(
            kind=self.kind, name=self.key.name, labels=self.key.labels,
            help=self.help, value=self._value,
        )


class Gauge:
    """A point-in-time value: pushed via ``set()`` or pulled lazily
    from a zero-argument callback installed with ``set_function()``."""

    kind = "gauge"
    __slots__ = ("key", "help", "_value", "_fn")

    def __init__(self, key: MetricKey, help: str = ""):
        self.key = key
        self.help = help
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Make the gauge read ``fn()`` at snapshot time (pull mode)."""
        self._fn = fn

    def snapshot(self) -> "MetricSnapshot":
        return MetricSnapshot(
            kind=self.kind, name=self.key.name, labels=self.key.labels,
            help=self.help, value=self.value,
        )


class _Timer:
    """Context manager that observes its elapsed clock span."""

    __slots__ = ("_histogram", "_clock", "_start")

    def __init__(self, histogram: "Histogram", clock: Callable[[], float]):
        self._histogram = histogram
        self._clock = clock
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(self._clock() - self._start)


class Histogram:
    """A value distribution with exact count/sum/min/max and
    percentile estimates from a bounded, deterministic reservoir.

    Once the reservoir holds ``max_samples`` values it is decimated to
    every other sample and the recording stride doubles, so long runs
    stay bounded while the retained points remain spread uniformly
    over the observation sequence (no RNG -- snapshots reproduce).
    """

    kind = "histogram"
    __slots__ = (
        "key", "help", "max_samples", "_clock",
        "count", "sum", "min", "max",
        "_samples", "_stride", "_ticks",
    )

    def __init__(
        self,
        key: MetricKey,
        help: str = "",
        clock: Optional[Callable[[], float]] = None,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ):
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2 (got {max_samples})")
        self.key = key
        self.help = help
        self.max_samples = max_samples
        self._clock = clock if clock is not None else time.perf_counter
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: list = []
        self._stride = 1
        self._ticks = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._ticks += 1
        if self._ticks % self._stride:
            return
        self._samples.append(value)
        if len(self._samples) >= self.max_samples:
            self._samples = self._samples[::2]
            self._stride *= 2

    def time(self) -> _Timer:
        """``with histogram.time():`` observes the elapsed clock span."""
        return _Timer(self, self._clock)

    def percentile(self, p: float) -> float:
        return percentile(tuple(sorted(self._samples)), p)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> "MetricSnapshot":
        samples = tuple(sorted(self._samples))
        return MetricSnapshot(
            kind=self.kind, name=self.key.name, labels=self.key.labels,
            help=self.help,
            count=self.count, sum=self.sum,
            min=self.min if self.count else 0.0,
            max=self.max if self.count else 0.0,
            percentiles=tuple(
                (p, percentile(samples, p)) for p in PERCENTILES
            ),
            samples=samples,
        )


@dataclass(frozen=True)
class MetricSnapshot:
    """Immutable point-in-time state of a single metric.

    ``value`` is set for counters/gauges; the distribution fields for
    histograms.  ``samples`` carries the (bounded) reservoir so
    snapshots merge and round-trip through JSON exactly.
    """

    kind: str
    name: str
    labels: Tuple[Tuple[str, str], ...] = ()
    help: str = ""
    value: float = 0.0
    count: int = 0
    sum: float = 0.0
    min: float = 0.0
    max: float = 0.0
    percentiles: Tuple[Tuple[float, float], ...] = ()
    samples: Tuple[float, ...] = ()

    @property
    def key(self) -> MetricKey:
        return MetricKey(self.name, self.labels)

    def quantile(self, p: float) -> float:
        for point, value in self.percentiles:
            if point == p:
                return value
        return percentile(self.samples, p)

    def merge(self, other: "MetricSnapshot") -> "MetricSnapshot":
        """Combine two snapshots of the *same* metric.

        Counters add; gauges take ``other`` (the more recent shard);
        histograms pool their reservoirs and recompute percentiles.
        """
        if (self.kind, self.name, self.labels) != (
            other.kind, other.name, other.labels
        ):
            raise ValueError(
                f"cannot merge {self.kind} {self.key} with"
                f" {other.kind} {other.key}"
            )
        if self.kind == "counter":
            return MetricSnapshot(
                kind=self.kind, name=self.name, labels=self.labels,
                help=self.help or other.help, value=self.value + other.value,
            )
        if self.kind == "gauge":
            return MetricSnapshot(
                kind=self.kind, name=self.name, labels=self.labels,
                help=self.help or other.help, value=other.value,
            )
        samples = tuple(sorted(self.samples + other.samples))
        count = self.count + other.count
        return MetricSnapshot(
            kind=self.kind, name=self.name, labels=self.labels,
            help=self.help or other.help,
            count=count, sum=self.sum + other.sum,
            min=min(self.min, other.min) if count else 0.0,
            max=max(self.max, other.max) if count else 0.0,
            percentiles=tuple((p, percentile(samples, p)) for p in PERCENTILES),
            samples=samples,
        )


class MetricsSnapshot:
    """An ordered, mergeable collection of metric snapshots."""

    def __init__(self, metrics: Mapping[MetricKey, MetricSnapshot]):
        self._metrics: Dict[MetricKey, MetricSnapshot] = dict(metrics)

    def __iter__(self) -> Iterator[MetricSnapshot]:
        return iter(self._metrics.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self._metrics == other._metrics

    def get(self, name: str, **labels) -> Optional[MetricSnapshot]:
        return self._metrics.get(MetricKey(name, _labels_key(labels)))

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Union of two snapshots, merging metrics present in both."""
        merged = dict(self._metrics)
        for key, metric in other._metrics.items():
            mine = merged.get(key)
            merged[key] = metric if mine is None else mine.merge(metric)
        return MetricsSnapshot(merged)

    def counters(self) -> Dict[str, float]:
        """Flat ``{str(key): value}`` view of the counter metrics."""
        return {
            str(key): metric.value
            for key, metric in self._metrics.items()
            if metric.kind == "counter"
        }


class MetricsRegistry:
    """Get-or-create factory and owner of the process's metrics.

    ``clock`` is the default timebase for histogram ``time()`` timers
    (wall-clock ``perf_counter`` unless given); individual histograms
    may override it, e.g. with ``lambda: sim.now`` for simulated-time
    spans.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock if clock is not None else time.perf_counter
        self._metrics: Dict[MetricKey, object] = {}

    # ------------------------------------------------------------------
    # Factories

    def _get_or_create(self, cls, name: str, help: str, labels: dict,
                       **kwargs):
        key = MetricKey(name, _labels_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {key} already registered as"
                    f" {existing.kind}, not {cls.kind}"  # type: ignore[attr-defined]
                )
            return existing
        metric = cls(key, help, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        clock: Optional[Callable[[], float]] = None,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        **labels,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels,
            clock=clock if clock is not None else self.clock,
            max_samples=max_samples,
        )

    # ------------------------------------------------------------------
    # Introspection

    def get(self, name: str, **labels):
        return self._metrics.get(MetricKey(name, _labels_key(labels)))

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot({
            key: metric.snapshot()  # type: ignore[attr-defined]
            for key, metric in sorted(
                self._metrics.items(), key=lambda item: (item[0].name,
                                                         item[0].labels)
            )
        })
