#!/usr/bin/env python3
"""Fail on a second FlowMod writer or a second drop planner under
``core/``, stdlib-only.

What the controller enforces is kept in one book and reaches the
datapath one way: steering's ``_reconcile`` -> ``_apply`` ->
``LiveSecController.apply_rule``.  Two rules keep it that way:

* ``.send_flow_mod(`` is called from ``controller.py`` only -- any
  other caller under the core directory writes an entry no book holds;
* in ``apps/``, ``drop_rule(`` / ``source_block_rule(`` are called from
  the one block planner (``_plan_block``) only -- a drop planned
  anywhere else is a drop the resync, the host-move handler and the
  handoff do not know about.

Usage: python scripts/check_rule_writers.py [CORE_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from check_unused_imports import iter_sources

SENDER = "send_flow_mod"
SENDER_HOME = "controller.py"
DROP_PLANNERS = {"drop_rule", "source_block_rule"}
PLANNER_HOME = "_plan_block"


def calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every call with the name of its nearest enclosing function."""
    stack: List[Tuple[ast.AST, Optional[str]]] = [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            yield node, function
        stack.extend((child, function) for child in ast.iter_child_nodes(node))


def check_file(path: Path, core: Path) -> List[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    in_apps = "apps" in path.relative_to(core).parts[:-1]
    problems = []
    for call, function in calls(tree):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        if name == SENDER and path.name != SENDER_HOME:
            problems.append(
                f"{path}:{call.lineno}: .{SENDER}() outside {SENDER_HOME};"
                " use controller.apply_rule()"
            )
        elif in_apps and name in DROP_PLANNERS and function != PLANNER_HOME:
            problems.append(
                f"{path}:{call.lineno}: {name}() outside {PLANNER_HOME}();"
                " enter a Block and reconcile it"
            )
    return sorted(problems)


def main(argv: List[str]) -> int:
    core = Path(argv[0] if argv else "src/repro/core")
    problems: List[str] = []
    for source in iter_sources([str(core)]):
        problems.extend(check_file(source, core))
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} stray rule writer(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
