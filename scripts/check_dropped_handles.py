#!/usr/bin/env python3
"""Fail on ``schedule`` / ``schedule_at`` calls whose result is dropped,
stdlib-only.

The simulator kernel has two ways to queue an event: ``schedule*``
returns a cancellable ``EventHandle``, ``post*`` returns nothing and
allocates nothing but the heap entry.  The convention is one sentence
-- want to cancel -> ``schedule``, otherwise -> ``post`` -- so an
expression statement that is a bare ``<anything>.schedule(...)`` or
``<anything>.schedule_at(...)`` call paid for a handle nobody holds.

Usage: python scripts/check_dropped_handles.py [DIR ...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List

from check_unused_imports import iter_sources

HANDLE_METHODS = {"schedule": "post", "schedule_at": "post_at"}


def check_file(path: Path) -> List[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    dropped = []  # (lineno, method)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        if isinstance(func, ast.Attribute) and func.attr in HANDLE_METHODS:
            dropped.append((node.lineno, func.attr))
    return [
        f"{path}:{lineno}: result of .{method}() dropped;"
        f" use .{HANDLE_METHODS[method]}()"
        for lineno, method in sorted(dropped)
    ]


def main(argv: List[str]) -> int:
    problems: List[str] = []
    for source in iter_sources(argv or ["src/repro"]):
        problems.extend(check_file(source))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} dropped event handle(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
