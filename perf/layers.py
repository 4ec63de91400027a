"""The layer map and the profile bucketing behind the layer table.

A layer is a group of modules under ``src/repro/``; every ``.py`` file
there maps to exactly one (``test_harness.py`` fails on an unmapped
new module).  :func:`bucket_profile` turns one ``cProfile`` pass into
per-layer self time, charging code that belongs to no layer -- C
builtins such as ``list.sort`` or ``heappush``, and the standard
library -- to the layer that called it, through the profile's caller
edges.  What cannot be attributed stays in ``other``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.join(os.path.dirname(PERF_DIR), "src", "repro")

LAYERS = (
    "net.simulator", "net.links", "net.packet", "net.fluid",
    "openflow.switch", "openflow.flowtable", "openflow.channel",
    "elements",
    "core.controller", "core.apps", "core.policy", "core.events",
    "core.sharding",
    "obs", "faults", "loadgen", "other",
)

#: Whole directories (relative to ``src/repro``) that are one layer.
_DIRECTORY_LAYER = {
    "elements": "elements",
    "core/apps": "core.apps",
    "obs": "obs",
    "faults": "faults",
    "workloads": "loadgen",
    "analysis": "other",
    "baselines": "other",
}

#: Files mapped one by one: a new module in these packages must be
#: placed deliberately.
_FILE_LAYER = {
    "net/simulator.py": "net.simulator",
    "net/links.py": "net.links",
    "net/node.py": "net.links",
    "net/legacy.py": "net.links",
    "net/wifi.py": "net.links",
    "net/ecmp.py": "net.links",
    "net/fattree.py": "net.links",
    "net/topologies.py": "net.links",
    "net/packet.py": "net.packet",
    "net/host.py": "net.packet",
    "net/tcp.py": "net.packet",
    "net/fluid.py": "net.fluid",
    "openflow/switch.py": "openflow.switch",
    "openflow/actions.py": "openflow.switch",
    "openflow/pathproof.py": "openflow.switch",
    "openflow/flowtable.py": "openflow.flowtable",
    "openflow/match.py": "openflow.flowtable",
    "openflow/channel.py": "openflow.channel",
    "openflow/pipeline.py": "openflow.channel",
    "openflow/messages.py": "openflow.channel",
    "openflow/controller_base.py": "openflow.channel",
    "core/controller.py": "core.controller",
    "core/nib.py": "core.controller",
    "core/sessions.py": "core.controller",
    "core/routing.py": "core.controller",
    "core/loadbalance.py": "core.controller",
    "core/services.py": "core.controller",
    "core/directory.py": "core.controller",
    "core/conntrack.py": "core.controller",
    "core/flowcontrol.py": "core.controller",
    "core/messages.py": "core.controller",
    "core/deployment.py": "core.controller",
    "core/bus.py": "core.apps",
    "core/policy.py": "core.policy",
    "core/policy_compiler.py": "core.policy",
    "core/policy_io.py": "core.policy",
    "core/events.py": "core.events",
    "core/journal.py": "core.events",
    "core/visualization.py": "core.events",
    "core/webdb.py": "core.events",
    "core/introspection.py": "core.events",
    "core/sharding.py": "core.sharding",
    "cli.py": "other",
    "__main__.py": "other",
}


def layer_of_module(relative_path: str) -> Optional[str]:
    """The layer of a file given relative to ``src/repro`` (``/``
    separators), or ``None`` when the map does not place it."""
    if relative_path in _FILE_LAYER:
        return _FILE_LAYER[relative_path]
    directory, _, name = relative_path.rpartition("/")
    while directory:
        if directory in _DIRECTORY_LAYER:
            return _DIRECTORY_LAYER[directory]
        directory = directory.rpartition("/")[0]
    if name == "__init__.py":
        return "other"  # package markers re-export, they do no work
    return None


def _layer_of_file(filename: str) -> Optional[str]:
    """The layer of a profiled function's source file; ``None`` for
    code outside the repo (builtins, the standard library)."""
    if filename.startswith(REPRO_DIR + os.sep):
        relative = os.path.relpath(filename, REPRO_DIR).replace(os.sep, "/")
        return layer_of_module(relative) or "other"
    if filename.startswith(PERF_DIR + os.sep):
        return "loadgen"
    return None


#: Rounds of pushing foreign self time up the caller edges.  Each round
#: climbs one call level; what is still unplaced afterwards (deep
#: standard-library recursion, the profiler's own root) goes to other.
_CHARGE_ROUNDS = 24


def bucket_profile(stats: Dict[tuple, tuple]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s`` and ``calls`` from ``pstats.Stats.stats``.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)`` where ``callers`` maps a calling function to the edge's
    ``(nc, cc, tt, ct)``.  Total self time is conserved: the layers'
    ``self_s`` sum to the sum of every function's ``tt``.
    """
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    layer_by_func = {func: _layer_of_file(func[0]) for func in stats}
    pending: Dict[tuple, float] = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_by_func[func]
        if layer is None:
            pending[func] = tt
        else:
            table[layer]["self_s"] += tt
            table[layer]["calls"] += nc
    for _ in range(_CHARGE_ROUNDS):
        if not pending:
            break
        climbing: Dict[tuple, float] = {}
        for func, charge in pending.items():
            callers = stats[func][4]
            # Split by the edges' self time; by call count when every
            # edge is below the timer's resolution.
            for column in (2, 0):
                weights = {
                    caller: edge[column] for caller, edge in callers.items()
                    if caller != func
                }
                total = sum(weights.values())
                if total > 0.0:
                    break
            else:
                table["other"]["self_s"] += charge
                continue
            for caller, weight in weights.items():
                share = charge * weight / total
                layer = layer_by_func.get(caller)
                if layer is None:
                    climbing[caller] = climbing.get(caller, 0.0) + share
                else:
                    table[layer]["self_s"] += share
        pending = climbing
    table["other"]["self_s"] += sum(pending.values())
    return table


def with_shares(table: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """Add each layer's ``share`` of the table's total self time."""
    total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["share"] = row["self_s"] / total if total else 0.0
    return table
