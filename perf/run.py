"""The perf ledger: five seeded workloads, end to end and layer by layer.

    python3 perf/run.py                        # the whole ledger, seed 0
    python3 perf/run.py --workload W --seed N --reps 5 --out F
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perf/run.py --quick                # every workload at 1/10 size
    python3 perf/run.py --compare A.json B.json

Every repetition runs in a fresh serial subprocess (``worker.py``).
Host-time metrics are medians over the untraced repetitions, scaled by
the worker's interleaved speed calibration; one extra traced
repetition per workload gives the layer table, the counters and the
probes.  The process exits non-zero when an output check fails.

With both ``--workload`` and ``--trace`` the last line of output is the
one JSON object the benchmark contract asks for: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(PERF_DIR)
sys.path.insert(0, os.path.join(REPO_DIR, "src"))

import stats  # noqa: E402
from counters import END_TO_END, SIM, per_layer_schema  # noqa: E402
from layers import LAYERS  # noqa: E402
from workloads import NAMES  # noqa: E402

OUT_DIR = os.path.join(PERF_DIR, "out")
WORKER = os.path.join(PERF_DIR, "worker.py")
WORKER_TIMEOUT_S = 170
DEFAULT_REPS = 5
QUICK_SCALE = 0.1
#: ``--compare`` lets a metric move by its bound or by this much,
#: whichever is larger: a 50 ms set-up cannot be resolved to 25 %.
ABSOLUTE_FLOOR = {"setup_s": 0.05}


def run_worker(name: str, seed: int, scale: float, trace: bool) -> dict:
    """One repetition in a fresh process; its last output line is JSON.

    The interpreter's hash seed is pinned: it is an input like any
    other, and a per-process random one moves dict layouts enough to
    add a few percent of spread between repetitions.
    """
    done = subprocess.run(
        [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
         "--scale", repr(scale), "--trace", "1" if trace else "0"],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"worker for {name} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def untraced_reps(name: str, seed: int, scale: float,
                  reps: Optional[int], seconds: Optional[float]) -> List[dict]:
    """``reps`` repetitions, or as many as end within ``seconds``."""
    started = time.perf_counter()
    results: List[dict] = []
    longest = 0.0
    while True:
        rep_started = time.perf_counter()
        results.append(run_worker(name, seed, scale, trace=False))
        now = time.perf_counter()
        longest = max(longest, now - rep_started)
        if reps is not None:
            if len(results) >= reps:
                return results
        elif now - started + 1.1 * longest > seconds:
            return results


def _values(results: List[dict], key: str) -> List[float]:
    return [r[key] * r["speed_factor"] for r in results]


def summarize(results: List[dict], traced: Optional[dict]) -> dict:
    """One workload's ledger record from its repetitions."""
    wall = _values(results, "wall_raw_s")
    passed = [r["attempted"] - r["failed"] for r in results]
    end_to_end = {
        "wall_s": wall,
        "sessions_per_s": [p / w for p, w in zip(passed, wall)],
        "setup_s": _values(results, "setup_raw_s"),
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
    }
    failures = [f for r in results for f in r["failures"]]
    everything = results + ([traced] if traced is not None else [])
    first = everything[0]
    deterministic = all(
        r["sim"] == first["sim"] and r["digests"] == first["digests"]
        for r in everything
    )
    if not deterministic:
        failures.append("sim metrics or digests differ between repetitions")
    attempted = sum(r["attempted"] for r in results)
    failed = attempted if not deterministic else sum(
        r["failed"] for r in results
    )

    def median_of(group: str, key: str) -> Optional[float]:
        samples = [r[group][key] for r in results
                   if r[group].get(key) is not None]
        return statistics.median(samples) if samples else None

    record = {
        "seed": first["seed"],
        "scale": first["scale"],
        "sim_duration_s": first["sim_duration_s"],
        "end_to_end": {
            metric: stats.summarize(values, END_TO_END[metric][0])
            for metric, values in end_to_end.items()
        },
        "attempted": attempted,
        "failed": failed,
        "failed_op_share": failed / attempted,
        "failures": failures[:20],
        "sim": first["sim"],
        "digests": first["digests"],
        "counts": {key: median_of("counts", key) for key in first["counts"]},
        "probes": {key: median_of("probes", key) for key in first["probes"]},
        "host": {
            "host.wall_raw_s": statistics.median(
                r["wall_raw_s"] for r in results),
            "host.speed_factor": statistics.median(
                r["speed_factor"] for r in results),
            "host.calibration_samples": statistics.median(
                r["calibration_samples"] for r in results),
            "trace.overhead_ratio": None,
        },
    }
    if traced is not None:
        record["layers"] = traced["layers"]
        record["traced_wall_s"] = traced["wall_raw_s"]
        record["host"]["trace.overhead_ratio"] = (
            traced["wall_raw_s"] / record["host"]["host.wall_raw_s"]
        )
    return record


def write_trace(name: str, results: List[dict], traced: Optional[dict],
                record: dict) -> None:
    """Spans, layer table and counts of one workload, at exit."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.trace.json")
    everything = results + ([traced] if traced is not None else [])
    with open(path, "w") as handle:
        json.dump({
            "workload": name,
            "spans": [span for r in everything for span in r["spans"]],
            "layers": record.get("layers"),
            "counts": record["counts"],
            "probes": record["probes"],
        }, handle, indent=1)


def per_layer_metrics(record: dict) -> Dict[str, Optional[float]]:
    """The flat ``--trace 1`` metric set of one workload record."""
    flat: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        row = record.get("layers", {}).get(layer, {})
        for column in ("self_s", "share", "calls"):
            flat[f"{layer}.{column}"] = row.get(column)
    flat.update(record["counts"])
    flat.update(record["probes"])
    for key in SIM:
        flat[key] = record["sim"].get(key)
    flat.update(record["host"])
    return flat


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def print_record(name: str, record: dict) -> None:
    print(f"\n== {name}  (seed {record['seed']}, scale {record['scale']:g},"
          f" {record['sim_duration_s']:g} sim-s)")
    for metric, row in record["end_to_end"].items():
        print(f"  {metric:<16} {_fmt(row['median']):>10} {row['unit']:<5}"
              f" q1 {_fmt(row['q1'])}  q3 {_fmt(row['q3'])}"
              f"  min {_fmt(row['min'])}  n {row['n']}")
    print(f"  {'failed_op_share':<16} {_fmt(record['failed_op_share']):>10}"
          f" ratio ({record['failed']} of {record['attempted']} flows)")
    for key, value in record["sim"].items():
        print(f"  {key:<16} {_fmt(value):>10} {SIM[key][0]}")
    for key, value in record["digests"].items():
        print(f"  {key:<16} {value[:16]}")
    for failure in record["failures"]:
        print(f"  CHECK FAILED: {failure}")
    schema = per_layer_schema()
    if "layers" in record:
        print(f"  {'layer':<20} {'self_s':>9} {'share':>7} {'calls':>10}")
        rows = sorted(record["layers"].items(),
                      key=lambda item: -item[1]["self_s"])
        for layer, row in rows:
            print(f"  {layer:<20} {row['self_s']:>9.3f}"
                  f" {row['share']:>7.1%} {row['calls']:>10}")
        total = sum(row["self_s"] for row in record["layers"].values())
        print(f"  {'sum / traced wall':<20} {total:>9.3f}"
              f" / {record['traced_wall_s']:.3f} s")
    for group in ("counts", "probes", "host"):
        for key, value in record[group].items():
            print(f"  {key:<42} {_fmt(value):>12} {schema[key][0]}")


def final_line(record: dict, trace: int) -> str:
    """The contract's result object (absent values print as 0)."""
    if trace:
        schema = per_layer_schema()
        values = per_layer_metrics(record)
    else:
        schema = END_TO_END
        values = {m: row["median"] for m, row in record["end_to_end"].items()}
    return json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": values[key] if values[key] is not None else 0.0,
                  "unit": unit}
            for key, (unit, _better) in schema.items()
        },
    })


def git_sha() -> Optional[str]:
    """HEAD's hash, marked ``-dirty`` when the tree differs from it;
    ``None`` outside a git checkout."""
    def git(*command: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *command], cwd=REPO_DIR,
                capture_output=True, text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha and git("status", "--porcelain", "--untracked-files=no"):
        sha += "-dirty"
    return sha


def measure(args) -> int:
    names = [args.workload] if args.workload else list(NAMES)
    scale = QUICK_SCALE if args.quick else 1.0
    want_trace = not args.no_trace and args.trace != 0
    reps: Optional[int] = None
    seconds: Optional[float] = None
    if args.trace == 1:
        reps = 1  # the time goes to the traced repetition
    elif args.reps is not None:
        reps = args.reps
    elif args.seconds is not None:
        seconds = args.seconds
    else:
        reps = 1 if args.quick else DEFAULT_REPS
    ledger = {
        "claim": None,
        "meta": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "seed": args.seed,
            "scale": scale,
        },
        "workloads": {},
    }
    ok = True
    for name in names:
        results = untraced_reps(name, args.seed, scale, reps, seconds)
        traced = run_worker(name, args.seed, scale, True) if want_trace else None
        record = summarize(results, traced)
        write_trace(name, results, traced, record)
        print_record(name, record)
        ledger["workloads"][name] = record
        ok = ok and not record["failures"]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(ledger, handle, indent=1)
            handle.write("\n")
        print(f"\nwrote {args.out}")
    print("\nall checks passed" if ok else "\nCHECKS FAILED")
    if args.workload and args.trace is not None:
        print(final_line(ledger["workloads"][args.workload], args.trace))
    return 0 if ok else 1


# ----------------------------------------------------------------------
# --compare


def _better_everywhere(base: List[float], other: List[float],
                       better: str) -> bool:
    if better == "lower":
        return max(other) < min(base)
    return min(other) > max(base)


def compare(path_a: str, path_b: str) -> int:
    """Rows of A against B: one per workload x end-to-end metric, then
    the simulated metrics and digests, then the layer-table diff."""
    with open(path_a) as handle:
        ledger_a = json.load(handle)
    with open(path_b) as handle:
        ledger_b = json.load(handle)
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    regressed = False
    print(f"A = {path_a} ({ledger_a['meta']['git_sha']})")
    print(f"B = {path_b} ({ledger_b['meta']['git_sha']})")
    print(f"\n{'workload':<22} {'metric':<15} {'A median [q1, q3]':>30}"
          f" {'B median [q1, q3]':>30} {'B/A':>7} {'bound':>6}  verdict")
    shared = [n for n in ledger_a["workloads"] if n in ledger_b["workloads"]]
    for name in shared:
        rec_a, rec_b = ledger_a["workloads"][name], ledger_b["workloads"][name]
        for metric, row_a in rec_a["end_to_end"].items():
            row_b = rec_b["end_to_end"][metric]
            bound, better = bounds[metric]["bound"], bounds[metric]["better"]
            base = row_a["median"]
            ratio = row_b["median"] / base
            allowed = max(bound * base, ABSOLUTE_FLOOR.get(metric, 0.0))
            worse_by = row_b["median"] - base
            if better == "higher":
                worse_by = -worse_by
            widest = max(row["q3"] - row["q1"] for row in (row_a, row_b))
            if widest > allowed and not _better_everywhere(
                    row_a["values"], row_b["values"], better):
                verdict = (f"unresolved (quartiles {_fmt(widest)}"
                           f" {row_a['unit']} apart > bound)")
            elif worse_by > allowed:
                verdict = "worse"
                regressed = True
            else:
                verdict = "within bound"

            def cell(row: dict) -> str:
                return (f"{_fmt(row['median'])} [{_fmt(row['q1'])},"
                        f" {_fmt(row['q3'])}] {row['unit']}")

            print(f"{name:<22} {metric:<15} {cell(row_a):>30}"
                  f" {cell(row_b):>30} {ratio:>7.3f} {bound:>6.0%}"
                  f"  {verdict} (base A = {_fmt(base)})")
    print("\nsimulated metrics and digests (must be equal):")
    for name in shared:
        rec_a, rec_b = ledger_a["workloads"][name], ledger_b["workloads"][name]
        for group in ("sim", "digests"):
            for key, value_a in rec_a[group].items():
                value_b = rec_b[group].get(key)
                same = value_a == value_b
                regressed = regressed or not same
                shown = (value_a[:16] if isinstance(value_a, str)
                         else _fmt(value_a))
                print(f"  {name:<22} {key:<18} {shown:<18}"
                      f" {'equal' if same else f'DIFFERENT (B = {value_b})'}")
        for rec, side in ((rec_a, "A"), (rec_b, "B")):
            if rec["failed"]:
                regressed = True
                print(f"  {name:<22} failed_op_share {side} ="
                      f" {rec['failed_op_share']:.4f}")
    print("\nlayer table (self seconds of the traced repetition; share):")
    for name in shared:
        layers_a = ledger_a["workloads"][name].get("layers")
        layers_b = ledger_b["workloads"][name].get("layers")
        if not layers_a or not layers_b:
            continue
        print(f"  {name}")
        for layer in LAYERS:
            a, b = layers_a[layer], layers_b[layer]
            if a["self_s"] < 0.005 and b["self_s"] < 0.005:
                continue
            print(f"    {layer:<20} {a['self_s']:>8.3f} -> {b['self_s']:>8.3f} s"
                  f"  ({a['share']:>6.1%} -> {b['share']:>6.1%})"
                  f"  calls {a['calls']} -> {b['calls']}")
    print("\nREGRESSION" if regressed else "\nno regression beyond the bounds")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int,
                        help=f"untraced repetitions (default {DEFAULT_REPS})")
    parser.add_argument("--seconds", type=float,
                        help="repeat until this budget is used, not --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: one untraced and one"
                             " traced repetition")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="every workload at one-tenth size, once")
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
