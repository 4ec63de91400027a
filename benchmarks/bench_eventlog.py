"""E16 (microbench: segmented event store & checkpointed replay).

The monitoring pillar's scaling claim: at paper scale the event log
sees per-tick ELEMENT_LOAD/LINK_LOAD churn, so the WebUI's replay and
query paths cannot afford O(whole-history) work per frame.  Both new
paths keep their pre-change implementations as oracles in
``tests/oracles.py`` -- ``query_linear`` and ``replay_linear`` --
which makes the ablation exact: identical event streams, identical
probes, only the strategy differs.

Runs standalone (``python benchmarks/bench_eventlog.py`` with
``PYTHONPATH=src``) for ``make bench-smoke``, writing
``BENCH_eventlog.json`` next to the repo root, or under
pytest-benchmark like every other bench file.
"""

import random
import sys
import time
from pathlib import Path

from repro.analysis import format_table
from repro.core.events import EventKind, EventLog
from repro.core.visualization import MonitoringComponent

from common import run_once, write_result

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests import oracles  # noqa: E402  (the repo root is not a package path)

STREAM_SIZES = (10_000, 100_000)
SEGMENT_SIZE = 512
CHECKPOINT_INTERVAL = 512
RETENTION_SEGMENTS = 4
REPLAY_PROBES = 12
SPEEDUP_FLOOR_AT_100K = 5.0


def build_stream(num_events, seed=7):
    """A monitoring-shaped stream: ~90% load samples over a small key
    space, sparse lifecycle events, attacks only in the opening 2%."""
    rng = random.Random(seed)
    now = 0.0
    stream = []
    for index in range(num_events):
        now += 0.001
        roll = rng.random()
        if index < num_events // 50 and roll < 0.02:
            stream.append((now, EventKind.ATTACK_DETECTED,
                           {"user_mac": f"m{rng.randint(0, 9)}",
                            "attack": "synflood"}))
        elif roll < 0.45:
            stream.append((now, EventKind.LINK_LOAD,
                           {"dpid": rng.randint(1, 8),
                            "port": rng.randint(1, 3),
                            "utilization": round(rng.random(), 3)}))
        elif roll < 0.9:
            stream.append((now, EventKind.ELEMENT_LOAD,
                           {"mac": f"e{rng.randint(0, 15)}",
                            "cpu": round(rng.random(), 3),
                            "pps": float(rng.randint(0, 1000))}))
        elif roll < 0.97:
            stream.append((now, EventKind.HOST_JOIN
                           if rng.random() < 0.5 else EventKind.HOST_LEAVE,
                           {"mac": f"m{rng.randint(0, 9)}",
                            "ip": None, "dpid": rng.randint(1, 8)}))
        else:
            stream.append((now, EventKind.PROTOCOL_IDENTIFIED,
                           {"user_mac": f"m{rng.randint(0, 9)}",
                            "application": "http"}))
    return stream


def fill(log, stream):
    for when, kind, data in stream:
        log.emit(when, kind, **data)
    return log


def time_ops(fn, probes, min_seconds=0.2):
    """Operations per second, batching whole probe passes until the
    run is long enough to time reliably."""
    done = 0
    elapsed = 0.0
    start = time.perf_counter()
    while elapsed < min_seconds:
        for probe in probes:
            fn(probe)
        done += len(probes)
        elapsed = time.perf_counter() - start
    return done / elapsed


def run_experiment():
    results = []
    for size in STREAM_SIZES:
        stream = build_stream(size)
        log = EventLog(segment_size=SEGMENT_SIZE)
        monitoring = MonitoringComponent(
            log, checkpoint_interval=CHECKPOINT_INTERVAL
        )
        fill(log, stream)
        assert not hasattr(monitoring, "database")  # stored exactly once
        horizon = stream[-1][0]

        # --- queries: a sparse kind + a narrow recent time window ----
        rng = random.Random(13)
        query_probes = [
            {"kind": EventKind.ATTACK_DETECTED},
            {"kind": EventKind.HOST_JOIN,
             "since": horizon * 0.9, "until": horizon},
            {"since": horizon * 0.98},
        ] * 2
        for probe in query_probes:  # semantic sanity before timing
            assert log.query(**probe) == oracles.query_linear(log, **probe)
        query_linear = time_ops(lambda p: oracles.query_linear(log, **p),
                                query_probes)
        query_segmented = time_ops(lambda p: log.query(**p), query_probes)

        # --- replay: random past moments ----------------------------
        replay_probes = [rng.uniform(0.0, horizon)
                         for __ in range(REPLAY_PROBES)]
        for probe in replay_probes[:3]:
            assert monitoring.replay(probe) == \
                oracles.replay_linear(monitoring, probe)
        replay_linear = time_ops(
            lambda p: oracles.replay_linear(monitoring, p), replay_probes,
            min_seconds=0.5,
        )
        replay_ckpt = time_ops(monitoring.replay, replay_probes,
                               min_seconds=0.5)

        # --- retention: the bounded-memory knob ---------------------
        compacted = fill(
            EventLog(segment_size=SEGMENT_SIZE,
                     retention=RETENTION_SEGMENTS),
            stream,
        )

        results.append({
            "events": size,
            "query_linear_per_s": round(query_linear, 1),
            "query_segmented_per_s": round(query_segmented, 1),
            "query_speedup": round(query_segmented / query_linear, 2),
            "replay_linear_per_s": round(replay_linear, 2),
            "replay_checkpointed_per_s": round(replay_ckpt, 2),
            "replay_speedup": round(replay_ckpt / replay_linear, 2),
            "retained_lossless": len(log),
            "retained_compacted": len(compacted),
        })
    return results


def report(results, out=sys.stderr):
    print(file=out)
    print(
        format_table(
            ["events", "query lin (1/s)", "query seg (1/s)", "speedup",
             "replay lin (1/s)", "replay ckpt (1/s)", "speedup",
             "retained w/ retention"],
            [
                [r["events"], r["query_linear_per_s"],
                 r["query_segmented_per_s"], f'{r["query_speedup"]}x',
                 r["replay_linear_per_s"], r["replay_checkpointed_per_s"],
                 f'{r["replay_speedup"]}x', r["retained_compacted"]]
                for r in results
            ],
            title="E16: event store, flat-scan vs segmented/checkpointed",
        ),
        file=out,
    )


def check(results):
    # Both new paths must never lose, and the win must be decisive at
    # scale: checkpointed replay folds O(delta), the linear oracle
    # folds the whole history.
    for r in results:
        assert r["query_speedup"] >= 1.0, r
        assert r["replay_speedup"] >= 1.0, r
        assert r["retained_compacted"] < r["retained_lossless"], r
        assert r["retained_lossless"] == r["events"], r
    by_size = {r["events"]: r for r in results}
    assert by_size[100_000]["replay_speedup"] >= SPEEDUP_FLOOR_AT_100K, \
        by_size[100_000]
    assert by_size[100_000]["query_speedup"] >= SPEEDUP_FLOOR_AT_100K, \
        by_size[100_000]


def test_e16_event_store(benchmark):
    results = run_once(benchmark, run_experiment)
    report(results)
    check(results)


if __name__ == "__main__":
    bench_results = run_experiment()
    report(bench_results, out=sys.stdout)
    write_result("eventlog", bench_results)
    check(bench_results)
