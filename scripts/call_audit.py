#!/usr/bin/env python3
"""Which ``src/repro`` functions do the workloads run?  Stdlib-only.

Every command in ``ENTRIES`` -- the perf ledger, the Makefile smokes,
each CLI subcommand in each ``--format``, the examples, the bench
scripts and the paper catalogue -- runs with a ``sys.setprofile`` hook
that records every code object entered, in that process and in every
Python process it starts.  ``TESTS`` (tier-1) runs under the same hook.
Each function under the source root then lands in one column:

* **entry**     -- some entry point calls it;
* **test-only** -- only the test suite calls it;
* **unreached** -- nothing calls it, tier-1 included;
* **stub**      -- its body is only a docstring, ``pass``, ``...`` or
  ``raise NotImplementedError``, or it is a ``__repr__`` / ``__str__``;
  reported, never counted.

The script prints a per-module table of functions and lines per column
and exits 1 when the functions no entry point reaches (test-only plus
unreached, stubs excluded) outnumber ``CEILING``, when an unreached
function has no verdict in ``VERDICTS``, or when a verdict names no
function.  Lower the ceiling when the count falls; a verdict is *wire*
(an entry point should run it), *keep* (reached on purpose only by
tests or by nothing) or *delete*.

The hook costs 3-5x: on a 2-core host the entry points take about 20
minutes (``experiment all`` 14 of them) and tier-1 about 7.  It is
``make audit``, not part of ``make lint``.

Usage: python scripts/call_audit.py [--traces DIR [--reuse]] [--list]
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from check_unused_imports import iter_sources

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Functions no entry point reaches, stubs excluded; the ratchet.
CEILING = 110

#: Every non-test entry point, run from the repo root with ``src`` on
#: ``PYTHONPATH``; ``{tmp}`` is a temporary directory shared by all.
ENTRIES: Tuple[str, ...] = (
    # the perf ledger: all five workloads at 1/10 size
    "python3 perf/run.py --quick",
    # the paper catalogue, and the other two formats on cheap entries
    "python -m repro experiment",
    "python -m repro experiment all",
    "python -m repro experiment E5 E8 --format json",
    "python -m repro experiment E6 E9 --format markdown",
    # stats-smoke, in each format
    "python -m repro stats --quick",
    "python -m repro stats --quick --format json",
    "python -m repro stats --quick --format prometheus",
    # chaos-smoke, chaos-determinism, accountability-smoke
    "python -m repro chaos --seed 0 --assert-recovered",
    "python -m repro chaos --seed 0 --shards 4",
    "python -m repro chaos --seed 0 --format json",
    "python -m repro chaos --seed 0 --crash all --fail-mode closed"
    " --channel-drop-rate 0.05",
    "python -m repro chaos --scenario compromised-switch"
    " --variant skip-waypoint --seed 0 --assert-detected --assert-recovered",
    "python -m repro chaos --scenario compromised-switch"
    " --variant skip-waypoint --seed 0 --shards 2 --assert-detected"
    " --assert-recovered",
    "python -m repro chaos --scenario compromised-switch --variant misroute",
    "python -m repro chaos --scenario compromised-switch --variant tag-strip"
    " --format json",
    # shard-smoke
    "python -m repro shards --shards 4",
    "python -m repro shards --shards 4 --topology fattree --format json",
    "python -m repro chaos --scenario shard-failover --seed 0"
    " --assert-rehomed",
    "python -m repro chaos --scenario shard-failover --format json",
    # fluid-smoke
    "python -m repro fluid --seed 3 --assert-equivalent",
    "python -m repro fluid --seed 6 --link-flap --assert-equivalent",
    # replay-smoke, in each format
    "python -m repro chaos --seed 0 --record {tmp}/live.jsonl",
    "python -m repro replay {tmp}/live.jsonl --at 6.0",
    "python -m repro replay {tmp}/live.jsonl --digest-only",
    "python -m repro replay {tmp}/live.jsonl --format json",
    # policy-smoke
    "python -m repro policy check examples/policies/intents.json",
    "python -m repro policy check examples/policies/conflicting_intents.json",
    "python -m repro policy check examples/policies/intents.json"
    " --format json",
    "python -m repro policy check examples/policies/conflicting_intents.json"
    " --format json",
    "python -m repro policy reload examples/policies/intents.json"
    " --record {tmp}/policy.jsonl",
    "python -m repro policy reload"
    " examples/policies/conflicting_intents.json",
    # ops-smoke, and the journal in each format
    "python -m repro ops --action cycle --record {tmp}/ops.jsonl",
    "python -m repro ops --format json",
    "python -m repro journal {tmp}/ops.jsonl --digest-only",
    "python -m repro journal {tmp}/ops.jsonl",
    "python -m repro journal {tmp}/ops.jsonl --session 1",
    "python -m repro journal {tmp}/ops.jsonl --format json",
    "python -m repro apps",
    "python -m repro apps --format json --no-traffic",
    # make examples
    "python examples/quickstart.py",
    "python examples/campus_visualization.py",
    "python examples/attack_mitigation.py",
    "python examples/load_balancing.py",
    "python examples/aggregate_flow_control.py",
    "python examples/datacenter_fabric.py",
    # the engineering benches (bench-smoke plus bench_chaos)
    "python benchmarks/bench_flowtable.py",
    "python benchmarks/bench_eventlog.py",
    "python benchmarks/bench_policy.py",
    "python benchmarks/bench_shard_scaling.py",
    "python benchmarks/bench_fluid.py",
    "python benchmarks/bench_chaos.py",
)

#: Tier-1, under the same hook.
TESTS = "python -m pytest -q -p no:cacheprovider"

#: A verdict for every function no entry point reaches, keyed by
#: ``module``, ``module:Class`` or ``module:qualname`` (the longest
#: key that matches wins).  "item N" is a ROADMAP open item.
VERDICTS: Dict[str, str] = {
    # -- attack paths no campaign runs yet (item 6) --
    "repro.core.flowcontrol:AggregateFlowControl.penalized_users":
    "wire: paper IV.C; item 6 (i) gives flow control a second caller",
    "repro.core.sharding:ShardMember.receive_report": "wire: an attack"
    " seen by a borrowed IDS; item 6 runs its campaigns on 4 shards",
    "repro.core.sharding:ShardCoordinator.forward_report": "wire: as"
    " ShardMember.receive_report",
    # -- link failure and host liveness (item 10) --
    "repro.core.apps.host_tracker:HostTrackerApp.on_uplinks_lost":
    "wire: uplink loss; a link flap outliving LLDP (item 10)",
    "repro.core.apps.steering:SteeringApp.on_uplinks_lost": "wire: as"
    " HostTrackerApp.on_uplinks_lost",
    "repro.core.apps.topology:TopologyApp.on_link_timed_out": "wire: LLDP"
    " link timeout; item 10 replaces it with PortStatus",
    "repro.core.controller:LiveSecController.on_link_timeout": "wire: as"
    " TopologyApp.on_link_timed_out",
    "repro.core.nib:NetworkInformationBase.rebuild_links": "wire: as"
    " TopologyApp.on_link_timed_out",
    # -- the paper's DHCP proxy (III.C.2); no workload's host uses DHCP --
    "repro.core.apps.host_tracker:HostTrackerApp.on_dhcp": "wire: DHCP"
    " through the directory proxy (paper III.C.2)",
    "repro.core.directory:DirectoryProxy": "wire: as"
    " HostTrackerApp.on_dhcp",
    # -- fault actions and their plan builders --
    "repro.faults.injector:FaultInjector": "keep: fault actions; tests"
    " drive each one through the injector",
    "repro.faults.plan:FaultPlan": "keep: fault-plan builders, validated"
    " by tests",
    "repro.faults.plan:FaultPlan.describe": "keep: the schedule as text,"
    " in time order",
    "repro.elements.base:ServiceElement.restart": "keep: fault action"
    " (element restart)",
    "repro.elements.base:ServiceElement.hang": "keep: fault action",
    "repro.elements.base:ServiceElement.set_report_interval": "keep:"
    " fault action (slow reporter)",
    "repro.net.simulator:_SeriesHandle.set_interval": "keep: what the"
    " slow-reporter fault action stretches",
    "repro.core.controller:LiveSecController.start_app_watchdog": "keep:"
    " armed by an app-crash plan",
    "repro.core.controller:LiveSecController._watchdog_scan": "keep: as"
    " start_app_watchdog",
    # -- app lifecycle (`repro ops` runs stop / reload / start) --
    "repro.core.controller:LiveSecController.add_app": "keep: app"
    " lifecycle operation",
    "repro.core.controller:LiveSecController.restart_app": "keep: app"
    " lifecycle operation",
    "repro.core.controller:LiveSecController.remove_app": "keep: app"
    " lifecycle operation",
    "repro.core.bus:EventBus.unsubscribe_app": "keep: rollback of a"
    " failed app registration",
    # -- reference behaviour and substrate semantics --
    "repro.openflow.flowtable:FlowTable.modify": "keep: OpenFlow MODIFY"
    " semantics of the substrate",
    "repro.openflow.flowtable:FlowTable.wildcard_entries": "keep: the"
    " index-equivalence tests read the wildcard tier",
    "repro.openflow.match:Match.wildcard_count": "keep: OpenFlow match"
    " semantics; the match tests pin it",
    "repro.net.node:Node.flood": "keep: substrate flooding primitive;"
    " the switches flood through their own port loops",
    "repro.net.ecmp:EcmpLegacySwitch.peek_forward": "keep: the side-effect"
    " free next-hop query the ECMP tests compare against receive()",
    "repro.net.legacy:LegacySwitch.spanning_tree_state": "keep: STP"
    " introspection the legacy tests assert",
    "repro.net.legacy:LegacySwitch._refreshed_by_fluid": "keep: a MAC"
    " refreshed only by a suspended flow; no workload idles that long",
    "repro.net.links:Link.utilization": "keep: link busy-time readout;"
    " the monitor reads port counters instead",
    "repro.net.tcp:TcpConnection._on_rto": "keep: TCP loss recovery; no"
    " entry point loses a segment, the TCP tests do",
    "repro.net.fluid:FluidRegion.tcp_opened": "wire: TCP under the fluid"
    " kernel; item 7's AIMD closed form",
    "repro.net.fluid:FluidRegion.tcp_closed": "wire: as tcp_opened",
    "repro.net.wifi:WirelessLink.fluid_plan": "wire: fluid over Wi-Fi;"
    " item 7 suspends campus_chaos",
    "repro.openflow.controller_base:ControllerBase.known_links": "keep:"
    " discovery introspection the LLDP tests assert",
    "repro.openflow.controller_base:ControllerBase.link_between": "keep:"
    " as known_links",
    "repro.openflow.pipeline:InstallPipeline.pending_batches": "keep:"
    " the install-pipeline tests' drain check",
    "repro.core.events:_jsonify": "keep: json default= guard for a value"
    " JSON cannot encode; no event carries one",
    "repro.workloads.flows:TrafficFlow.payload_for": "keep: base default"
    " of a subclass hook; every concrete flow overrides it",
    "repro.elements.base:ServiceElement.inspect": "keep: base default of"
    " the element hook",
    "repro.elements.base:ServiceElement.stats": "keep: per-element"
    " counters as one dict, read by the element tests",
    # -- policy tables and documents --
    "repro.core.policy:PolicyTable.add": "keep: single-row shim; the"
    " migration measured costlier than the shim",
    "repro.core.policy:PolicyTable.remove": "keep: as PolicyTable.add",
    "repro.core.policy:PolicyTable.__iter__": "keep: rows in match order,"
    " which the compiled == live tests compare",
    "repro.core.policy:PolicyTable.serving": "keep: the version-0 table"
    " load_policies returns; only tests and policy_file builds load one",
    "repro.core.policy:PolicyTable.on_commit.unsubscribe": "keep: the"
    " detach half of a subscription",
    "repro.core.policy:PolicyTransaction": "keep: the transactional"
    " policy API (remove / validate / abort)",
    "repro.core.policy_io:table_to_dict": "keep: writer half of the v2"
    " document the CLI reads; round-trip tests pin the reader",
    "repro.core.policy_io:table_from_dict": "keep: reader paired with"
    " table_to_dict",
    "repro.core.policy_io:save_policies": "keep: as table_to_dict",
    "repro.core.policy_io:load_policies": "keep: as table_from_dict",
    # -- read surfaces and container protocol --
    "repro.core.events:EventLog.tail": "keep: the log's newest-n read",
    "repro.core.events:EventLog.segment_stats": "keep: segmentation"
    " introspection the compaction tests read",
    "repro.core.events:EventLog.stream_to": "keep: append-as-emitted"
    " JSONL sink; tests pin that it equals save()",
    "repro.core.events:EventLog.close_stream": "keep: as stream_to",
    "repro.core.introspection:ControllerStatus.to_dict": "keep: JSON form"
    " of the typed status record",
    "repro.core.journal:SessionJournal.__iter__": "keep: container"
    " protocol",
    "repro.core.sessions:Session.is_steered": "keep: one-line query the"
    " steering invariants read",
    "repro.core.sessions:Session.snapshot": "wire: the typed session view;"
    " item 3's `repro trace --session` prints it",
    "repro.core.sessions:SessionSnapshot": "wire: as Session.snapshot",
    "repro.core.sessions:SessionTable.snapshot": "wire: as"
    " Session.snapshot",
    "repro.core.nib:NetworkInformationBase.user_hosts": "keep: one-line"
    " query the shard tests read",
    "repro.core.nib:NetworkInformationBase.element_hosts": "keep: as"
    " user_hosts",
    "repro.core.services:ServiceRegistry.is_element": "keep: one-line"
    " query the registry tests read",
    "repro.core.apps.monitor:MonitorApp.subscribe_flow_stats.unsubscribe":
    "keep: the detach half of a subscription",
    "repro.core.visualization:MonitoringComponent.checkpoints": "keep:"
    " the checkpoint ladder the replay tests bound",
    "repro.core.visualization:MonitoringComponent.replay_series": "wire:"
    " the WebUI's history scrub; item 3's endpoint",
    "repro.core.deployment:LiveSecNetwork.add_user": "keep: attach a host"
    " at runtime; the roaming tests use it",
    "repro.obs.export:from_json": "keep: reader of the JSON exporter;"
    " round-trip tests",
    "repro.obs.metrics:Gauge": "keep: metric-type API (set / inc / dec)",
    "repro.obs.metrics:Histogram": "keep: metric-type API (percentile,"
    " mean)",
    "repro.obs.metrics:MetricsSnapshot.__eq__": "keep: snapshot equality"
    " the merge tests compare with",
    "repro.obs.metrics:MetricsRegistry.get": "keep: the registry's"
    " point read",
    # -- baselines, scenarios --
    "repro.baselines.traditional:InlineMiddlebox.utilization": "wire:"
    " E11 should show the hot-zone box saturating beside idle peers",
    "repro.baselines.pswitch:PSwitchNetwork.middlebox_utilizations":
    "wire: as InlineMiddlebox.utilization",
    "repro.workloads.scenarios:CampusDayScenario": "wire: the campus day"
    " (churn, mixed apps, attacks) the soak suite runs; item 6 and the"
    " campus_visualization example should use it",
    "repro.workloads.users:UserChurn": "wire: as CampusDayScenario",
}

#: Installed as ``sitecustomize`` ahead of everything on PYTHONPATH, so
#: every Python process an entry starts records what it enters.  A
#: process that profiles itself (``perf/worker.py --trace 1``) replaces
#: the hook; the ledger's untraced repetition runs the same code.
HOOK = '''\
import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg, _add=_seen.add):
    _add(frame.f_code)
def _dump():
    sys.setprofile(None)
    root = os.environ["CALL_AUDIT_ROOT"]
    out = os.path.join(os.environ["CALL_AUDIT_OUT"], "%d.txt" % os.getpid())
    with open(out, "a") as lines:
        for code in _seen:
            path = os.path.realpath(code.co_filename)
            if path.startswith(root):
                lines.write("%s:%d\\n" % (path, code.co_firstlineno))
atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''

COLUMNS = ("entry", "test-only", "unreached", "stub")


@dataclass(frozen=True)
class Function:
    module: str
    qualname: str
    path: Path
    #: ``co_firstlineno``: the first decorator's line, else the def's.
    line: int
    lines: int
    stub: bool

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def is_stub(node: ast.AST) -> bool:
    if node.name in ("__repr__", "__str__"):
        return True
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if (isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            exc = statement.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def functions(root: Path) -> List[Function]:
    """Every ``def`` in every module under ``root``, an import root."""
    found = []
    for path in iter_sources([str(root)]):
        parts = path.relative_to(root).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        stack: List[Tuple[ast.AST, str]] = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    found.append(Function(
                        module, prefix + child.name, path.resolve(), first,
                        child.end_lineno - first + 1, is_stub(child),
                    ))
                    stack.append((child, f"{prefix}{child.name}."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))
    return sorted(found, key=lambda f: (f.module, f.line))


def run(commands: Sequence[str], root: Path, traces: Path) -> List[int]:
    """Run each command under the hook, one trace directory apiece;
    returns the exit codes."""
    hook = traces / "hook"
    hook.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(HOOK)
    codes = []
    for index, command in enumerate(commands):
        out = traces / f"{index:03d}"
        out.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(root)] + [
                p for p in [env.get("PYTHONPATH")] if p])
        env.update(CALL_AUDIT_ROOT=str(root), CALL_AUDIT_OUT=str(out))
        started = time.perf_counter()
        with open(out / "output.log", "w") as log:
            code = subprocess.run(
                command.format(tmp=traces), shell=True, cwd=REPO, env=env,
                stdout=log, stderr=subprocess.STDOUT,
            ).returncode
        codes.append(code)
        print(f"[{index + 1:>2}/{len(commands)}]"
              f" {time.perf_counter() - started:6.1f}s exit {code}"
              f"  {command}", file=sys.stderr, flush=True)
    return codes


def hits(trace_dirs: Iterable[Path]) -> Set[Tuple[Path, int]]:
    """The (file, first line) of every code object the traces entered."""
    seen = set()
    for trace in trace_dirs:
        for dump in trace.glob("*.txt"):
            for line in dump.read_text().splitlines():
                path, _, first = line.rpartition(":")
                seen.add((Path(path), int(first)))
    return seen


def classify(
    found: Sequence[Function],
    entry_hits: Set[Tuple[Path, int]],
    test_hits: Set[Tuple[Path, int]],
) -> Dict[str, List[Function]]:
    columns: Dict[str, List[Function]] = {c: [] for c in COLUMNS}
    for function in found:
        key = (function.path, function.line)
        if function.stub:
            columns["stub"].append(function)
        elif key in entry_hits:
            columns["entry"].append(function)
        elif key in test_hits:
            columns["test-only"].append(function)
        else:
            columns["unreached"].append(function)
    return columns


def verdict(function: Function,
            verdicts: Dict[str, str] = VERDICTS) -> Optional[str]:
    parts = function.qualname.split(".")
    for end in range(len(parts), 0, -1):
        found = verdicts.get(f"{function.module}:{'.'.join(parts[:end])}")
        if found is not None:
            return found
    return verdicts.get(function.module)


def stale_verdicts(found: Iterable[Function],
                   verdicts: Dict[str, str] = VERDICTS) -> List[str]:
    """The verdict keys that name no module, class or function."""
    live = set()
    for function in found:
        live.add(function.module)
        parts = function.qualname.split(".")
        for end in range(1, len(parts) + 1):
            live.add(f"{function.module}:{'.'.join(parts[:end])}")
    return sorted(key for key in verdicts if key not in live)


def table(columns: Dict[str, List[Function]]) -> str:
    """Per-module ``functions/lines`` in each column, then the total."""
    rows: Dict[str, Dict[str, List[int]]] = {}
    for column, members in columns.items():
        for function in members:
            cell = rows.setdefault(
                function.module, {c: [0, 0] for c in COLUMNS})[column]
            cell[0] += 1
            cell[1] += function.lines
    total = {c: [sum(rows[m][c][i] for m in rows) for i in (0, 1)]
             for c in COLUMNS}
    width = max([len("module")] + [len(m) for m in rows])
    lines = [f"{'module':<{width}}" + "".join(
        f" {c:>11}" for c in COLUMNS)]
    for module in sorted(rows) + ["total"]:
        cells = total if module == "total" else rows[module]
        lines.append(f"{module:<{width}}" + "".join(
            f" {f'{n}/{loc}':>11}" for n, loc in (cells[c] for c in COLUMNS)))
    return "\n".join(lines)


def report(columns: Dict[str, List[Function]], ceiling: int,
           verdicts: Dict[str, str] = VERDICTS, listing: bool = False) -> int:
    """Print the table and the ratchet; returns the exit status."""
    print(table(columns))
    counted = sum(len(members) for members in columns.values())
    test_only = len(columns["test-only"])
    unreached = columns["unreached"]
    outside = test_only + len(unreached)
    print(f"\n{counted} functions: {len(columns['entry'])} entry,"
          f" {test_only} test-only ({test_only / max(1, counted):.1%}),"
          f" {len(unreached)} unreached, {len(columns['stub'])} stubs;"
          f" {outside} no entry point reaches (ceiling {ceiling})")
    if listing:
        for column in ("test-only", "unreached"):
            print(f"\n{column}:")
            for function in columns[column]:
                print(f"  {function.name}  -- "
                      f"{verdict(function, verdicts) or 'NO VERDICT'}")
    status = 0
    missing = [f for f in unreached if verdict(f, verdicts) is None]
    for function in missing:
        print(f"{function.path}:{function.line}: {function.name} is"
              " reached by nothing and has no verdict", file=sys.stderr)
        status = 1
    everything = [f for members in columns.values() for f in members]
    for key in stale_verdicts(everything, verdicts):
        print(f"verdict for {key} names no function", file=sys.stderr)
        status = 1
    if outside > ceiling:
        print(f"{outside} functions no entry point reaches, above the"
              f" ceiling of {ceiling}: run them from an entry point or"
              " delete them", file=sys.stderr)
        status = 1
    elif outside < ceiling:
        print(f"below the ceiling: lower CEILING to {outside}")
    return status


def audit(root: Path, traces: Path, entries: Sequence[str], tests: str,
          ceiling: int, verdicts: Dict[str, str] = VERDICTS,
          reuse: bool = False, listing: bool = False) -> int:
    commands = list(entries) + [tests]
    if not reuse:
        run(commands, root.resolve(), traces)
    dirs = [traces / f"{i:03d}" for i in range(len(commands))]
    columns = classify(functions(root), hits(dirs[:-1]), hits(dirs[-1:]))
    return report(columns, ceiling, verdicts, listing)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traces", type=Path,
                        help="keep the traces here (default: a temp dir)")
    parser.add_argument("--reuse", action="store_true",
                        help="classify the traces already in --traces")
    parser.add_argument("--list", action="store_true",
                        help="list every test-only and unreached function")
    args = parser.parse_args(argv)
    if args.traces is not None:
        return audit(SRC, args.traces.resolve(), ENTRIES, TESTS, CEILING,
                     reuse=args.reuse, listing=args.list)
    with tempfile.TemporaryDirectory() as traces:
        return audit(SRC, Path(traces), ENTRIES, TESTS, CEILING,
                     listing=args.list)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
