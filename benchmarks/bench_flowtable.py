"""E15 (microbench: indexed vs linear flow-table lookup).

The datapath's hot path is one ``FlowTable.lookup`` per received
frame.  The pre-index reference scan lives on in ``tests/oracles.py``
as ``lookup_linear`` (it is the semantic oracle for the equivalence
property test), which makes the ablation exact: identical tables,
identical probe frames, only the lookup strategy differs.

Runs standalone (``python benchmarks/bench_flowtable.py`` with
``PYTHONPATH=src``) for ``make bench-smoke``, writing
``BENCH_flowtable.json`` next to the repo root, or under
pytest-benchmark like every other bench file.
"""

import sys
import time
from functools import partial
from pathlib import Path

from repro.analysis import format_table
from repro.net import packet as pkt
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import Match

from common import run_once, write_result

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests import oracles  # noqa: E402  (the repo root is not a package path)

TABLE_SIZES = (100, 1000)
WILDCARD_RULES = 8
MAX_PROBES = 200
SPEEDUP_FLOOR_AT_1000 = 5.0


def _ip(index):
    return f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}"


def build_table(num_exact):
    """A table shaped like a busy AS switch: one exact entry per live
    session plus a handful of high-priority wildcard blocks."""
    table = FlowTable()
    probes = []
    for i in range(num_exact):
        in_port = 2 + i % 3
        frame = pkt.make_tcp(
            f"src{i}", f"dst{i}", _ip(i), _ip(i + 1), 1024 + i % 512, 80
        )
        table.add(
            FlowEntry(match=Match.from_frame(frame, in_port=in_port),
                      actions=(Output(1),)),
            now=0.0,
        )
        probes.append((frame, in_port))
    for j in range(WILDCARD_RULES):
        table.add(
            FlowEntry(match=Match(in_port=5, dl_src=f"blocked{j}"),
                      priority=210, actions=()),
            now=0.0,
        )
    step = max(1, len(probes) // MAX_PROBES)
    return table, probes[::step][:MAX_PROBES]


def time_lookups(lookup, probes, min_seconds=0.2):
    """Lookups per second, batching whole probe passes until the run
    is long enough to time reliably."""
    done = 0
    elapsed = 0.0
    start = time.perf_counter()
    while elapsed < min_seconds:
        for frame, in_port in probes:
            lookup(frame, in_port, 1.0)
        done += len(probes)
        elapsed = time.perf_counter() - start
    return done / elapsed


def run_experiment():
    results = []
    for size in TABLE_SIZES:
        table, probes = build_table(size)
        scan = partial(oracles.lookup_linear, table)
        for frame, in_port in probes:  # warm and sanity-check both paths
            assert table.lookup(frame, in_port, 1.0) is not None
            assert scan(frame, in_port, 1.0) is not None
        linear = time_lookups(scan, probes)
        indexed = time_lookups(table.lookup, probes)
        results.append({
            "entries": size,
            "linear_per_s": round(linear),
            "indexed_per_s": round(indexed),
            "speedup": round(indexed / linear, 2),
        })
    return results


def report(results, out=sys.stderr):
    print(file=out)
    print(
        format_table(
            ["table entries", "linear (1/s)", "indexed (1/s)", "speedup"],
            [
                [r["entries"], r["linear_per_s"], r["indexed_per_s"],
                 f'{r["speedup"]}x']
                for r in results
            ],
            title="E15: flow-table lookup, linear vs indexed",
        ),
        file=out,
    )


def check(results):
    # Indexed lookup must never lose, and the win must grow with table
    # size: the exact-match path is O(1) while the scan is O(entries).
    for r in results:
        assert r["speedup"] >= 1.0, r
    by_size = {r["entries"]: r for r in results}
    assert by_size[1000]["speedup"] >= SPEEDUP_FLOOR_AT_1000, by_size[1000]
    assert by_size[1000]["speedup"] > by_size[100]["speedup"]


def test_e15_indexed_lookup(benchmark):
    results = run_once(benchmark, run_experiment)
    report(results)
    check(results)


if __name__ == "__main__":
    bench_results = run_experiment()
    report(bench_results, out=sys.stdout)
    write_result("flowtable", bench_results)
    check(bench_results)
