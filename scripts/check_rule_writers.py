#!/usr/bin/env python3
"""Fail on a second FlowMod writer, a second drop planner or a second
way across the shard fabric under ``core/``, stdlib-only.

What the controller enforces is kept in one book and reaches the
datapath one way: steering's ``_reconcile`` -> ``_apply`` ->
``LiveSecController.apply_rule``.  Three rules keep it that way:

* ``.send_flow_mod(`` is called from ``controller.py`` only -- any
  other caller under the core directory writes an entry no book holds;
* in ``apps/``, ``drop_rule(`` / ``source_block_rule(`` are called from
  the one block planner (``_plan_block``) only -- a drop planned
  anywhere else is a drop the resync, the host-move handler and the
  handoff do not know about;
* ``bpdu_drop_rule(`` -- the one entry no book holds -- is called from
  ``SteeringApp.on_switch_joined`` only: written on every join of a
  datapath, it needs no book, and written anywhere else it is an entry
  nothing restores;
* ``INTER_SHARD_LATENCY_S`` is read in ``sharding.py`` (where
  ``ShardMember.deliver`` spends it on every crossing) and in
  ``SteeringApp._reconcile`` (the ingress entry's lag) only -- a post
  that spends it anywhere else is a crossing the failed-member guard
  does not see.

Usage: python scripts/check_rule_writers.py [CORE_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

from check_unused_imports import iter_sources

SENDER = "send_flow_mod"
SENDER_HOME = "controller.py"
DROP_PLANNERS = {"drop_rule", "source_block_rule"}
PLANNER_HOME = "_plan_block"
GROUP_DROP = "bpdu_drop_rule"
GROUP_DROP_HOME = "SteeringApp.on_switch_joined"
HOP = "INTER_SHARD_LATENCY_S"
HOP_HOME = "sharding.py"
HOP_LAG = "SteeringApp._reconcile"


def nodes(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Every node with the dotted name of the classes and functions
    enclosing it ("" at module level)."""
    stack: List[Tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield node, scope
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))


def check_file(path: Path, core: Path) -> List[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    in_apps = "apps" in path.relative_to(core).parts[:-1]
    problems = []
    for node, scope in nodes(tree):
        if isinstance(node, ast.Name):
            if node.id == HOP and path.name != HOP_HOME and scope != HOP_LAG:
                problems.append(
                    f"{path}:{node.lineno}: {HOP} outside {HOP_HOME} and"
                    f" {HOP_LAG}(); cross with ShardMember.deliver()"
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        function = scope.rpartition(".")[2]
        if name == SENDER and path.name != SENDER_HOME:
            problems.append(
                f"{path}:{node.lineno}: .{SENDER}() outside {SENDER_HOME};"
                " use controller.apply_rule()"
            )
        elif in_apps and name in DROP_PLANNERS and function != PLANNER_HOME:
            problems.append(
                f"{path}:{node.lineno}: {name}() outside {PLANNER_HOME}();"
                " enter a Block and reconcile it"
            )
        elif name == GROUP_DROP and scope != GROUP_DROP_HOME:
            problems.append(
                f"{path}:{node.lineno}: {name}() outside {GROUP_DROP_HOME}();"
                " nothing would restore it"
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
        print(f"{len(problems)} stray rule writer(s) or hop(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
