"""One repetition of one workload, in a fresh process.

``run.py`` starts this file as a subprocess for every repetition:
module-level flow-id and port counters, allocator state and peak RSS
make in-process repeats unequal.  The worker builds the workload, times
its phases as spans, optionally profiles the timed region, reads the
layers' counters, runs the outside probes and prints one JSON object
on its last output line.

Host speed on a shared sandbox drifts by +-15 % over tens of seconds
and by more between minutes, which is more than the regression bound.
The worker therefore interleaves a fixed pure-Python calibration chunk
with the timed region (a simulator timer polls it, ``Workload.polls``
times a run; it runs when 5 ms of wall time have passed, up to a
quarter of the run), excludes the
chunks from the measured wall, and reports how fast the host ran them
against a reference.  ``run.py`` scales host-time metrics by that
``speed_factor``; the raw seconds are kept beside them.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import sys
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(PERF_DIR), "src"))

import counters  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

class _Node:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def touch(self, value: int) -> "_Node":
        self.value = value
        return self


class Calibrator:
    """Samples host speed with a fixed chunk of interpreter work.

    The chunk mixes what the simulator's hot path is made of -- heap
    pushes and pops, dict stores, a method call and an attribute store
    per iteration.  It allocates only floats and ints, which the cyclic
    collector does not count: a chunk never triggers a collection whose
    cost would depend on how large the workload's heap is.
    """

    INTERVAL_S = 0.005
    CHUNK_ITERATIONS = 2500
    #: Seconds one chunk takes on the reference host (this sandbox at
    #: its usual speed, CPython 3.11).  Only ratios to it are used.
    REFERENCE_CHUNK_S = 0.0013

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.total_s = 0.0
        self.samples = 0
        self._last_end = time.perf_counter()

    def poll(self) -> float:
        """Run a chunk if one is due; returns the seconds it took."""
        if not self.enabled:
            return 0.0
        started = time.perf_counter()
        if started - self._last_end < self.INTERVAL_S:
            return 0.0
        return self.sample(started)

    def sample(self, started: Optional[float] = None) -> float:
        if started is None:
            started = time.perf_counter()
        heap: list = []
        table: dict = {}
        node = _Node()
        for i in range(self.CHUNK_ITERATIONS):
            heappush(heap, ((i * 7919) % 1009) * 4096.0 + i)
            table[i & 511] = node.touch(i)
            if i & 1:
                heappop(heap)
        ended = time.perf_counter()
        self.total_s += ended - started
        self.samples += 1
        self._last_end = ended
        return ended - started

    @property
    def speed_factor(self) -> float:
        """Reference chunk time over measured: 1.0 on the reference
        host, below it on a slower one."""
        if not self.samples:
            return 1.0
        return self.REFERENCE_CHUNK_S / (self.total_s / self.samples)


class SpanLog:
    """Spans around the worker's own calls into the program: name,
    start, end, parent, and the workload's id on every span."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[dict] = []
        self._open: List[str] = []
        self._origin = time.perf_counter()

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        span = {
            "trace": self.trace_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter() - self._origin,
            "end": None,
        }
        self.spans.append(span)
        self._open.append(name)
        try:
            yield
        finally:
            self._open.pop()
            span["end"] = time.perf_counter() - self._origin

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)


def run_once(name: str, seed: int, scale: float, trace: bool) -> Dict[str, object]:
    workload = workloads.make(name, seed, scale)
    spans = SpanLog(f"{name}/seed{seed}/pid{os.getpid()}")
    profiler = cProfile.Profile() if trace else None

    with spans("setup"):
        with spans("build"):
            workload.build()
        with spans("start"):
            workload.start()
        with spans("populate"):
            workload.populate()

    calibrator = Calibrator(enabled=not trace)
    ticker = workload.net.sim.every(
        workload.sim_duration_s / workload.polls, calibrator.poll
    )
    with spans("run"):
        if profiler is not None:
            profiler.enable()
        with spans("simulate"):
            workload.run()
        with spans("read"):
            workload.read(calibrator.poll)
        if profiler is not None:
            profiler.disable()
    ticker.cancel()
    wall_raw = spans.duration("run") - calibrator.total_s
    if calibrator.enabled and not calibrator.samples:
        calibrator.sample()  # a run shorter than one polling interval

    with spans("verify"):
        workload.verify()
    with spans("probe"):
        counts = counters.collect_counts(workload, wall_raw)
        probes = counters.run_probes(workload, seed)

    result: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "traced": trace,
        "wall_raw_s": wall_raw,
        "setup_raw_s": spans.duration("setup"),
        "speed_factor": calibrator.speed_factor,
        "calibration_samples": calibrator.samples,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "sim_duration_s": workload.sim_duration_s,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures[:20],
        "sim": workload.sim_metrics(),
        "digests": workload.digests(),
        "counts": counts,
        "probes": probes,
        "spans": spans.spans,
    }
    if profiler is not None:
        table = layers.bucket_profile(pstats.Stats(profiler).stats)
        result["layers"] = layers.with_shares(table)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.scale, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
