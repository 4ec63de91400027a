#!/usr/bin/env python3
"""Fail on an ``itertools.count`` made at import time, stdlib-only.

What a run numbers is the run's: flow ids, ports, xids and session ids
come from counters an object owns (``sim.next_id``, the switch, the
install pipeline, the session table), so two deployments built in one
process number identically.  A counter made while a module is imported
-- bound at module level, in a class body, or as a default argument
value -- is shared by every run in the process, and the second run's
numbers depend on what the first one did.

Usage: python scripts/check_process_counters.py [DIR ...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Set

from check_unused_imports import iter_sources


class _ImportTimeCounters(ast.NodeVisitor):
    """Collects ``itertools.count(...)`` calls outside function bodies."""

    def __init__(self) -> None:
        self.modules: Set[str] = set()  # names bound to itertools
        self.functions: Set[str] = set()  # names bound to itertools.count
        self.lines: List[int] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "itertools":
                self.modules.add(alias.asname or alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "itertools":
            for alias in node.names:
                if alias.name == "count":
                    self.functions.add(alias.asname or alias.name)

    def _visit_function(self, node) -> None:
        # Decorators and default values run at import; the body not.
        for child in node.decorator_list:
            self.visit(child)
        self.visit(node.args)
        if node.returns is not None:
            self.visit(node.returns)

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.args)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr == "count"
                and isinstance(func.value, ast.Name)
                and func.value.id in self.modules) or (
                isinstance(func, ast.Name) and func.id in self.functions):
            self.lines.append(node.lineno)
        self.generic_visit(node)


def check_file(path: Path) -> List[str]:
    visitor = _ImportTimeCounters()
    visitor.visit(ast.parse(path.read_text(), filename=str(path)))
    return [
        f"{path}:{lineno}: itertools.count() made at import time;"
        f" give the counter to the object that numbers the run"
        for lineno in sorted(visitor.lines)
    ]


def main(argv: List[str]) -> int:
    problems: List[str] = []
    for source in iter_sources(argv or ["src/repro"]):
        problems.extend(check_file(source))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} process-wide counter(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
