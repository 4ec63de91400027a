"""Shared helpers for the benchmark harness.

The paper experiments (E1-E14, E20) live in the catalogue,
:mod:`repro.workloads.experiments`, and ``bench_paper.py`` runs every
entry; the other ``bench_*.py`` files are engineering benches -- wall-
clock ratios against in-tree oracles -- that also run as scripts and
record their numbers in ``BENCH_<name>.json`` at the repo root.
"""

from __future__ import annotations

import json
from pathlib import Path


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def write_result(name: str, results) -> None:
    """Record a script run's results as ``BENCH_<name>.json``."""
    path = Path(__file__).resolve().parent.parent / f"BENCH_{name}.json"
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {path}")
