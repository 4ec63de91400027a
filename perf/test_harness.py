"""Checks on the benchmark harness itself.

Run with ``python -m pytest perf/`` from the repo root; tier-1
(``testpaths = ["tests"]``) does not collect this file.
"""

import cProfile
import json
import os
import pstats
import re
import subprocess
import sys
import time

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(PERF_DIR)
sys.path.insert(0, PERF_DIR)
sys.path.insert(0, os.path.join(REPO_DIR, "src"))

import counters  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _repro_modules():
    for directory, _dirs, files in os.walk(layers.REPRO_DIR):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                yield os.path.relpath(path, layers.REPRO_DIR).replace(os.sep, "/")


def test_every_module_maps_to_exactly_one_layer():
    unmapped = [m for m in _repro_modules() if layers.layer_of_module(m) is None]
    assert not unmapped, f"place these modules in perf/layers.py: {unmapped}"
    for module in _repro_modules():
        assert layers.layer_of_module(module) in layers.LAYERS


def test_an_unmapped_new_module_is_refused():
    assert layers.layer_of_module("net/brand_new_kernel.py") is None
    assert layers.layer_of_module("core/brand_new_store.py") is None
    # A new file inside a whole-directory layer needs no entry.
    assert layers.layer_of_module("elements/brand_new_element.py") == "elements"


def test_layer_map_has_no_stale_entries():
    present = set(_repro_modules())
    stale = [m for m in layers._FILE_LAYER if m not in present]
    assert not stale, f"perf/layers.py maps files that no longer exist: {stale}"


def _profiled_work():
    """Python frames calling C builtins and the standard library."""
    import heapq
    import json as json_module

    heap = []
    for index in range(20000):
        heapq.heappush(heap, (index * 7919) % 1009)
    rows = sorted(heap, key=lambda value: -value)
    return json_module.dumps(rows[:2000])


def test_builtin_charging_conserves_total_self_time():
    profiler = cProfile.Profile()
    profiler.enable()
    _profiled_work()
    profiler.disable()
    raw = pstats.Stats(profiler).stats
    total = sum(entry[2] for entry in raw.values())
    table = layers.bucket_profile(raw)
    charged = sum(row["self_s"] for row in table.values())
    assert charged == pytest.approx(total, rel=0.01)
    # This file lives in perf/, so the builtins and the json encoder it
    # called are charged to loadgen, not left in other.
    assert table["loadgen"]["self_s"] > 0.9 * total


def test_metric_names_are_well_formed_and_match_the_contract():
    schema = counters.per_layer_schema()
    for name in list(schema) + list(counters.END_TO_END):
        assert METRIC_NAME.fullmatch(name), name
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    assert [m["name"] for m in contract["per_layer"]] == list(schema)
    assert [m["name"] for m in contract["end_to_end"]] == list(counters.END_TO_END)
    assert [w["name"] for w in contract["workloads"]] == list(workloads.NAMES)
    for metric in contract["per_layer"] + contract["end_to_end"]:
        unit, better = {**schema, **counters.END_TO_END}[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert stats.percentile(samples, 99) == 990
    assert stats.percentile(samples[:200], 95) == 190
    with pytest.raises(ValueError):
        stats.percentile(samples[:999], 99.5)
    with pytest.raises(ValueError):
        stats.percentile(samples[:600], 99)
    with pytest.raises(ValueError):
        stats.percentile(samples[:19], 50)


def test_quick_suite_runs_green_within_thirty_seconds(tmp_path):
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--quick",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30.0, f"--quick took {elapsed:.1f} s"
    ledger = json.loads(out.read_text())
    assert ledger["claim"] is None
    assert list(ledger["workloads"]) == list(workloads.NAMES)
    for name, record in ledger["workloads"].items():
        assert record["failed"] == 0 and not record["failures"], name
        table = record["layers"]
        assert set(table) == set(layers.LAYERS)
        total = sum(row["self_s"] for row in table.values())
        assert total == pytest.approx(record["traced_wall_s"], rel=0.05), name
