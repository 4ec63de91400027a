"""Microbench: the policy index vs the scans it replaced.

The policy table is consulted on every flow's first packet and its
rows are verified against each other at every commit.  Both readers go
through one ``PolicyIndex``; the scans they replaced live on in
``tests/oracles.py`` (``first_match``, ``verify_rows_all_pairs``) as
the references, which makes the ablation exact: identical rows,
identical probes, only the strategy differs -- and findings and
winners are asserted identical before any ratio is printed.

The population is the perf ledger's (one gateway chain behind
disjoint /24 work zones) plus what the index must not prune: a /16
over some of the zones and a catch-all at the bottom.  The all-pairs
reference is quadratic (minutes at 10 000 rows), so it verifies only
up to ``ORACLE_VERIFY_MAX`` rows.

Runs standalone (``python benchmarks/bench_policy.py`` with
``PYTHONPATH=src``) for ``make bench-smoke``, writing
``BENCH_policy.json`` next to the repo root, or under pytest-benchmark
like every other bench file.
"""

import sys
import time
from pathlib import Path

from repro.analysis import format_table
from repro.core.policy import FlowSelector, PolicyAction
from repro.core.policy_compiler import PolicyIntent, compile_intents
from repro.net.packet import FlowNineTuple

from common import run_once, write_result

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests import oracles  # noqa: E402  (the repo root is not a package path)

TABLE_SIZES = (64, 1000, 10_000)
ORACLE_VERIFY_MAX = 1000
MAX_PROBES = 200
GATEWAY_IP = "10.255.255.254"
VERIFY_SPEEDUP_FLOOR_AT_1000 = 5.0
MATCH_SPEEDUP_FLOOR_AT_10000 = 20.0


def _zone(index):
    return f"172.{16 + (index >> 8)}.{index & 0xFF}.0/24"


def build_intents(size):
    intents = [
        PolicyIntent(
            name="inspect-internet", action=PolicyAction.CHAIN,
            selector=FlowSelector(dst_ip=GATEWAY_IP),
            service_chain=("ids",), priority=200,
        ),
        PolicyIntent(name="quarantine-172.16", action=PolicyAction.DROP,
                     dst_zone="172.16.0.0/16", priority=100_000),
        PolicyIntent(name="catch-all", action=PolicyAction.ALLOW, priority=1),
    ]
    for index in range(size - len(intents)):
        intents.append(PolicyIntent(
            name=f"zone-{index}",
            action=(PolicyAction.ALLOW, PolicyAction.DROP)[index % 2],
            dst_zone=_zone(index), priority=300 + index,
        ))
    return intents


def build_probes(size):
    """Flows into every ``step``-th zone, to the gateway, and nowhere."""
    zones = size - 3
    step = max(1, zones // MAX_PROBES)
    targets = [_zone(index).replace(".0/24", ".9")
               for index in range(0, zones, step)][:MAX_PROBES]
    targets += [GATEWAY_IP, "192.168.0.1"]
    return [
        FlowNineTuple(None, "aa:aa", "bb:bb", 0x0800, "10.0.0.1", dst,
                      17, 20000, 9000)
        for dst in targets
    ]


def time_lookups(match, probes, min_seconds=0.2):
    """Microseconds per lookup, batching whole probe passes until the
    run is long enough to time reliably."""
    done = 0
    elapsed = 0.0
    start = time.perf_counter()
    while elapsed < min_seconds:
        for flow in probes:
            match(flow)
        done += len(probes)
        elapsed = time.perf_counter() - start
    return elapsed / done * 1e6


def run_experiment():
    results = []
    for size in TABLE_SIZES:
        intents = build_intents(size)
        start = time.perf_counter()
        compiled = compile_intents(intents, service_types=("ids",))
        compile_s = time.perf_counter() - start
        rows = list(compiled.table)
        row = {
            "intents": size,
            "findings": len(compiled.findings),
            "compile_s": round(compile_s, 4),
            "all_pairs_s": None,
            "verify_speedup": None,
        }
        if size <= ORACLE_VERIFY_MAX:
            start = time.perf_counter()
            reference = oracles.verify_rows_all_pairs(
                rows, service_types=("ids",)
            )
            all_pairs_s = time.perf_counter() - start
            assert compiled.findings == reference
            # The reference only verifies; compile also normalizes and
            # sorts, so the ratio understates the index.
            row["all_pairs_s"] = round(all_pairs_s, 4)
            row["verify_speedup"] = round(all_pairs_s / compile_s, 1)
        probes = build_probes(size)
        for flow in probes:
            assert compiled.table.match(flow) == oracles.first_match(rows, flow)
        scan_us = time_lookups(lambda f: oracles.first_match(rows, f), probes)
        index_us = time_lookups(compiled.table.match, probes)
        row.update({
            "scan_match_us": round(scan_us, 2),
            "index_match_us": round(index_us, 2),
            "match_speedup": round(scan_us / index_us, 1),
        })
        results.append(row)
    return results


def report(results, out=sys.stderr):
    def cell(value, suffix=""):
        return "-" if value is None else f"{value}{suffix}"

    print(file=out)
    print(
        format_table(
            ["intents", "findings", "compile (s)", "all pairs (s)", "speedup",
             "scan match (us)", "index match (us)", "speedup"],
            [
                [r["intents"], r["findings"], r["compile_s"],
                 cell(r["all_pairs_s"]), cell(r["verify_speedup"], "x"),
                 r["scan_match_us"], r["index_match_us"],
                 f'{r["match_speedup"]}x']
                for r in results
            ],
            title="Policy index: verification and lookup, scan vs index",
        ),
        file=out,
    )


def check(results):
    # A probe per signature against a scan of every row (pair): the win
    # must grow with the table, and a lookup in 10 000 rows must cost
    # about what it costs in 64 (where scan and index roughly tie: the
    # probes' winners sit 32 rows deep on average).
    by_size = {r["intents"]: r for r in results}
    assert by_size[1000]["verify_speedup"] >= VERIFY_SPEEDUP_FLOOR_AT_1000, \
        by_size[1000]
    assert by_size[1000]["match_speedup"] > by_size[64]["match_speedup"]
    assert by_size[10_000]["match_speedup"] >= MATCH_SPEEDUP_FLOOR_AT_10000, \
        by_size[10_000]
    assert by_size[10_000]["index_match_us"] <= 2 * by_size[64]["index_match_us"]


def test_policy_index(benchmark):
    results = run_once(benchmark, run_experiment)
    report(results)
    check(results)


if __name__ == "__main__":
    bench_results = run_experiment()
    report(bench_results, out=sys.stdout)
    write_result("policy", bench_results)
    check(bench_results)
