"""Command-line interface: ``python -m repro <command>``.

A terminal front door to the reproduction, for poking at the system
without writing a script:

* ``experiment``  -- run paper experiments from the catalogue
                     (:mod:`repro.workloads.experiments`) by id, or
                     ``all``; no ids lists them,
* ``stats``       -- run HTTP traffic and print the controller's
                     observability snapshot (text, JSON, or Prometheus),
* ``chaos``       -- seeded fault-injection run (element crashes, optional
                     OpenFlow-channel drops) scoring the controller's
                     failure recovery; ``--record`` saves the event log
                     as JSONL,
* ``replay``      -- reconstruct and render any past moment of a recorded
                     run from a JSONL event-log file,
* ``fluid``       -- run a seeded CBR mix under the fluid fast-forward
                     kernel next to the packet-level oracle and diff
                     the outcomes (optionally asserting equivalence),
* ``shards``      -- boot an N-shard control plane and print the
                     coordinator's fabric status,
* ``apps``        -- list the controller's loaded apps with their bus
                     subscriptions and per-app event counters,
* ``policy``      -- compile/verify a policy intent file (``check``) or
                     hot-reload it into a running scenario (``reload``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import build_livesec_network
from repro.core.visualization import render_snapshot
from repro.net.topologies import GATEWAY_IP
from repro.workloads.scenarios import gateway_ids_policies


def _demo_net(num_as: int = 2, elements: int = 1):
    """The started demo deployment ``stats``, ``apps``, ``policy
    reload`` and ``ops`` share: linear, two hosts per AS switch, the
    IDS chain toward the gateway."""
    net = build_livesec_network(
        topology="linear", policies=gateway_ids_policies(),
        num_as=num_as, hosts_per_as=2,
    )
    for index in range(elements):
        net.add_element("ids", net.topology.as_switches[index])
    net.start()
    return net


def _demo_traffic(net) -> list:
    """One HTTP flow per user host toward the gateway, starts staggered
    by 50 ms; returns the started flows."""
    from repro.workloads import HttpFlow

    return [
        HttpFlow(net.sim, host, GATEWAY_IP, rate_bps=2e6,
                 packet_size=1500).start(delay_s=offset * 0.05)
        for offset, host in enumerate(net.topology.user_hosts)
    ]


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run catalogue entries: print each table, exit 1 on a failed
    shape check."""
    import json

    from repro.analysis.tables import format_markdown, format_table
    from repro.workloads.experiments import BY_ID, CATALOGUE

    if not args.ids:
        for experiment in CATALOGUE:
            print(f"{experiment.id:<4} {experiment.section:<8}"
                  f" {experiment.title}")
        return 0
    unknown = [i for i in args.ids if i != "all" and i not in BY_ID]
    if unknown:
        print(f"unknown experiment id(s) {unknown};"
              f" choose from {list(BY_ID)} or 'all'", file=sys.stderr)
        return 2
    chosen = CATALOGUE if "all" in args.ids else [BY_ID[i] for i in args.ids]
    reports = []
    for experiment in chosen:
        result = experiment.run()
        rows = experiment.rows(result)
        try:
            experiment.check(result)
            failure = None
        except AssertionError as exc:
            failure = str(exc) or "shape assertion failed"
        reports.append({
            "id": experiment.id, "section": experiment.section,
            "title": experiment.title, "headers": list(experiment.headers),
            "rows": rows, "failure": failure,
        })
        if args.format == "text":
            print(format_table(experiment.headers, rows,
                               title=experiment.heading))
            print()
        elif args.format == "markdown":
            print(f"## {experiment.heading}"
                  f" (Section {experiment.section})\n")
            print(format_markdown(experiment.headers, rows))
            print()
        if failure is not None:
            print(f"FAIL {experiment.id}: {failure}", file=sys.stderr)
    if args.format == "json":
        print(json.dumps(reports, indent=2))
    return 1 if any(r["failure"] is not None for r in reports) else 0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs import format_snapshot, to_json, to_prometheus_text

    quick = args.quick
    seconds = 1.5 if quick else args.seconds
    net = _demo_net(num_as=2 if quick else 4, elements=1 if quick else 2)
    flows = _demo_traffic(net)
    net.run(seconds)
    for flow in flows:
        flow.stop()
    net.run(net.controller.idle_timeout_s + 1.0)

    snapshot = net.metrics_snapshot()
    if args.format == "json":
        print(to_json(snapshot, indent=2))
    elif args.format == "prometheus":
        print(to_prometheus_text(snapshot), end="")
    else:
        title = (f"livesec stats: {len(flows)} hosts,"
                 f" {len(net.elements)} element(s), {seconds:g}s of traffic")
        print(format_snapshot(snapshot, title=title))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import (
        run_chaos_scenario,
        run_compromised_switch_scenario,
        run_shard_failover_scenario,
    )

    if args.scenario == "compromised-switch":
        report = run_compromised_switch_scenario(
            seed=args.seed,
            variant=args.variant,
            duration_s=args.duration,
            record_jsonl=args.record,
        )
    elif args.scenario == "shard-failover":
        report = run_shard_failover_scenario(
            seed=args.seed,
            duration_s=args.duration,
            record_jsonl=args.record,
        )
    else:
        report = run_chaos_scenario(
            seed=args.seed,
            fail_mode=args.fail_mode,
            crash=args.crash,
            duration_s=args.duration,
            channel_drop_rate=args.channel_drop_rate,
            record_jsonl=args.record,
            shards=args.shards,
        )
    if args.format == "json":
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    if args.record:
        print(f"recorded {report.events} events to {args.record}"
              f" (digest {report.event_digest})")
    if args.assert_recovered and report.unrecovered_sessions > 0:
        print(f"FAIL: {report.unrecovered_sessions} session(s) left"
              " unrecovered", file=sys.stderr)
        return 1
    if args.assert_detected and not report.quarantined_dpids:
        print("FAIL: compromised switch was never detected/quarantined",
              file=sys.stderr)
        return 1
    if args.assert_rehomed:
        if report.rehomed_switches == 0:
            print("FAIL: no switch was re-homed off the dead shard",
                  file=sys.stderr)
            return 1
        if report.roam_survived is False:
            print("FAIL: the roamed session did not survive its handoff",
                  file=sys.stderr)
            return 1
    return 0


def cmd_apps(args: argparse.Namespace) -> int:
    net = _demo_net()
    if not args.no_traffic:
        # A short burst of traffic so the per-app counters show the
        # dispatch paths actually taken, not a wall of zeros.
        flows = _demo_traffic(net)
        net.run(1.5)
        for flow in flows:
            flow.stop()
    descriptions = [app.describe() for app in net.controller.apps]
    if args.format == "json":
        import json

        print(json.dumps(descriptions, indent=2))
        return 0
    for description in descriptions:
        print(f"{description['name']}: {description['summary']}")
        if description["subscriptions"]:
            print("  subscriptions:")
            for sub in description["subscriptions"]:
                priority = (
                    f"  (priority {sub['priority']})"
                    if sub["priority"] else ""
                )
                print(f"    {sub['event']:<22} -> "
                      f"{sub['handler']}{priority}")
        if description["counters"]:
            print("  events handled:")
            for event, count in description["counters"].items():
                print(f"    {event:<22} {count}")
        print()
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.events import EventLog
    from repro.core.visualization import MonitoringComponent

    log = EventLog.load(args.file)
    monitoring = MonitoringComponent(log)
    if args.digest_only:
        print(f"{len(log)} events, digest {log.digest()}")
        return 0
    snapshot = (
        monitoring.replay(until=args.at) if args.at is not None
        else monitoring.snapshot()
    )
    if args.format == "json":
        import json

        from repro.core.webdb import snapshot_to_dict

        print(json.dumps(snapshot_to_dict(snapshot), indent=2))
        print(f"{len(log)} events, digest {log.digest()}", file=sys.stderr)
    else:
        print(render_snapshot(snapshot))
        print(f"\n{len(log)} events, digest {log.digest()}")
    return 0


def cmd_policy_check(args: argparse.Namespace) -> int:
    from repro.core.policy_compiler import compile_intents
    from repro.core.policy_io import PolicyFormatError, load_intents
    from repro.elements import ELEMENT_TYPES

    try:
        intents, default = load_intents(args.file)
        result = compile_intents(
            intents,
            default_action=default,
            service_types=set(ELEMENT_TYPES),
        )
    except (PolicyFormatError, ValueError) as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json

        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(f"{args.file}:")
        print(result.report())
    return 0 if result.ok else 1


def cmd_policy_reload(args: argparse.Namespace) -> int:
    """Demonstrate a hot-reload mid-scenario: traffic runs under the
    baseline table, the file swaps in atomically, established sessions
    survive, and the event log records exactly one POLICY_CHANGED."""
    from repro.core.events import EventKind
    from repro.core.policy_compiler import PolicyConflictError
    from repro.core.policy_io import PolicyFormatError

    net = _demo_net()
    flows = _demo_traffic(net)
    net.run(1.0)
    sessions_before = len(net.controller.sessions)
    version_before = net.controller.policies.version
    try:
        commit = net.reload_policies(args.file)
    except (PolicyConflictError, PolicyFormatError) as exc:
        print(f"reload rejected; table v{version_before} keeps serving:")
        print(exc, file=sys.stderr)
        return 1
    net.run(1.0)
    for flow in flows:
        flow.stop()
    net.run(net.controller.idle_timeout_s + 1.0)
    changes = net.controller.log.query(kind=EventKind.POLICY_CHANGED)
    print(f"reloaded {args.file}:"
          f" v{version_before} -> v{commit.version}"
          f" ({commit.policies} policies,"
          f" +{len(commit.added)}/-{len(commit.removed)})")
    print(f"sessions preserved across swap: {sessions_before}"
          f" (policy-changed events: {len(changes)})")
    if args.record:
        net.controller.log.save(args.record)
        print(f"recorded {len(net.controller.log)} events to {args.record}"
              f" (digest {net.controller.log.digest()})")
    return 0


def cmd_ops(args: argparse.Namespace) -> int:
    """Runtime app operations, live: boot the demo deployment, keep
    traffic flowing, and stop/reload/restart a controller app mid-run.
    Prints the typed per-app status table and the session journal's
    stable digest (the ``make ops-smoke`` determinism anchor)."""
    from repro.core.journal import SessionJournal

    net = _demo_net()
    journal = SessionJournal.attach(net.controller.log)
    controller = net.controller
    loaded = [app.name for app in controller.apps]
    if args.action != "status" and args.app not in loaded:
        print(f"no app {args.app!r} in the demo deployment;"
              f" loaded: {', '.join(loaded)}", file=sys.stderr)
        return 2
    flows = _demo_traffic(net)
    third = max(0.5, args.seconds / 3.0)
    net.run(third)
    actions: List[str] = []
    if args.action in ("stop", "cycle"):
        controller.stop_app(args.app)
        actions.append(f"stopped {args.app!r}")
        net.run(third)
    if args.action in ("reload", "cycle"):
        # A genuinely changed config where the app has a knob to turn
        # (the monitor's poll cadence); otherwise the same config, so
        # the hash check demonstrates the no-op skip.
        app = controller.app(args.app)
        config = dict(app.config)
        if args.app == "monitor":
            base = config.get("stats_interval_s") or 1.0
            config["stats_interval_s"] = base / 2
        before = app.config_hash()
        reloaded = controller.reload_app(args.app, config)
        if reloaded.config_hash() == before and reloaded is app:
            actions.append(f"reload of {args.app!r} skipped (same config)")
        else:
            actions.append(f"reloaded {args.app!r} with changed config")
    if args.action in ("restart", "cycle"):
        controller.start_app(args.app)
        actions.append(f"started {args.app!r}")
    net.run(max(0.0, args.seconds - 2 * third) + third)
    for flow in flows:
        flow.stop()
    net.run(controller.idle_timeout_s + 1.0)

    statuses = controller.app_status()
    if args.format == "json":
        import json

        print(json.dumps({
            "actions": actions,
            "apps": [s.to_dict() for s in statuses.values()],
            "journal": journal.summary(),
            "journal_digest": journal.digest(),
        }, indent=2))
    else:
        for action in actions:
            print(f"ops: {action}")
        print("app                 state        subs timers events"
              "  config")
        for status in statuses.values():
            print(f"{status.name:<19} {status.state:<12}"
                  f" {status.subscriptions:>4} {status.timers:>6}"
                  f" {status.events_handled:>6}"
                  f"  {status.config_hash[:10]}")
        summary = journal.summary()
        print(f"journal: {summary['records']} records over"
              f" {summary['sessions']} sessions"
              f" (open={summary['open']} close={summary['close']}"
              f" failover={summary['failover']}"
              f" still-open={summary['still_open']})")
        print(f"journal digest {journal.digest()}")
    if args.record:
        count = controller.log.save(args.record)
        replayed = SessionJournal.replay(args.record)
        verdict = (
            "replay digest matches"
            if replayed.digest() == journal.digest()
            else "REPLAY DIGEST MISMATCH"
        )
        print(f"recorded {count} events to {args.record} ({verdict})")
        if replayed.digest() != journal.digest():
            return 1
    return 0


def cmd_journal(args: argparse.Namespace) -> int:
    """Replay a recorded deployment's session history end to end."""
    from repro.core.journal import SessionJournal

    journal = SessionJournal.replay(args.file)
    if args.digest_only:
        print(f"{len(journal)} records, journal digest {journal.digest()}")
        return 0
    if args.format == "json":
        import json

        records = journal.records()
        if args.session is not None:
            records = [r for r in records if r.session == args.session]
        print(json.dumps({
            "summary": journal.summary(),
            "records": [
                {"time": r.time, "session": r.session,
                 "action": r.action, "detail": r.detail}
                for r in records
            ],
            "digest": journal.digest(),
        }, indent=2))
        return 0
    if args.session is not None:
        history = journal.session(args.session)
        if history is None:
            print(f"no session {args.session} in {args.file}",
                  file=sys.stderr)
            return 1
        for record in history.records:
            detail = " ".join(
                f"{k}={v}" for k, v in sorted(record.detail.items())
            )
            print(f"t={record.time:9.4f}s  {record.action:<9} {detail}")
        return 0
    summary = journal.summary()
    print(f"{args.file}: {summary['records']} journal records,"
          f" {summary['sessions']} sessions")
    for history in journal.sessions():
        opened = (
            f"opened t={history.opened_at:.3f}s"
            if history.opened_at is not None else "opened before window"
        )
        closed = (
            f"closed t={history.closed_at:.3f}s"
            if history.closed_at is not None else "still open"
        )
        print(f"  session {history.session_id}:"
              f" {'/'.join(history.actions())}"
              f" ({opened}, {closed})")
    print(f"journal digest {journal.digest()}")
    return 0


def cmd_shards(args: argparse.Namespace) -> int:
    """Boot a sharded control plane, run a little traffic -- every
    user streaming to the gateway, and one answered TCP connection
    between the first and the last user, shards apart -- and print the
    coordinator's fabric view: ownership, liveness, per-shard NIB
    digests, and the inter-shard protocol counters."""
    from repro.core.deployment import build_sharded_network
    from repro.workloads import CbrUdpFlow
    from repro.workloads.tcpflows import TcpServer, TcpTransfer

    if args.topology == "fattree":
        topology_kwargs = {"k": 4, "hosts_per_edge": 1}
    else:
        topology_kwargs = {
            "num_as": max(3, args.shards), "hosts_per_as": 1,
        }
    net = build_sharded_network(
        num_shards=args.shards,
        topology=args.topology,
        policies=gateway_ids_policies,
        elements=[("ids", args.shards)],
        **topology_kwargs,
    )
    net.start()
    flows = [
        CbrUdpFlow(net.sim, host, GATEWAY_IP, rate_bps=2e6,
                   duration_s=args.seconds).start()
        for host in net.topology.user_hosts
    ]
    first, last = net.topology.user_hosts[0], net.topology.user_hosts[-1]
    TcpServer(last, port=8080, response_bytes=2_000)
    east_west = TcpTransfer(first, last.ip, port=8080,
                            size_bytes=200_000).start()
    net.run(args.seconds + 0.5)
    for flow in flows:
        flow.stop()
    status = net.coordinator.status()
    if args.format == "json":
        import json

        print(json.dumps(status, indent=2, default=list))
        return 0
    print(f"shard fabric: {status['num_shards']} shard(s),"
          f" topology={args.topology},"
          f" federated elements={status['federated_elements']}")
    for shard in status["shards"]:
        live = "live" if shard["live"] else "DOWN"
        digest = (shard["nib_digest"] or "-")[:12]
        print(f"  shard {shard['shard']}: {live:<4}"
              f" dpids={list(shard['dpids'])}"
              f" hosts={shard['hosts']}"
              f" sessions={shard['sessions']}"
              f" nib={digest}")
    print(f"  protocol: handoffs={status['handoff_sessions']}"
          f" remote-rule-ops={status['remote_rule_ops']}"
          f" rehomed-switches={status['rehomed_switches']}"
          f" east-west={int(east_west.complete)}/1")
    print(f"  combined digest: {net.event_digest()[:16]}")
    return 0


def cmd_fluid(args: argparse.Namespace) -> int:
    """Run one seeded CBR mix twice -- packet oracle, then fluid
    kernel -- and print the per-flow diff, the kernel's counters, and
    a greppable control-plane digest line."""
    from repro.workloads.fluidcheck import compare_modes

    tolerance = args.tolerance if args.tolerance is not None else (
        2 if args.link_flap else 0
    )
    result = compare_modes(
        args.seed,
        delivered_tolerance_frames=tolerance,
        num_flows=args.flows,
        traffic_s=args.seconds,
        link_flap=args.link_flap,
    )
    packet, fluid = result["packet"], result["fluid"]
    print(f"seed {args.seed}: {args.flows} flows over {args.seconds}s"
          f" ({'with' if args.link_flap else 'no'} link flap)")
    print(f"  events: packet={packet.events_processed}"
          f" fluid={fluid.events_processed}"
          f" ({packet.events_processed / max(1, fluid.events_processed):.1f}x"
          " fewer)")
    print("  flow  sent-pkts  delivered-bytes  oracle-delta")
    for row_p, row_f in zip(packet.flows, fluid.flows):
        delta = row_f["delivered_bytes"] - row_p["delivered_bytes"]
        print(f"  {row_f['index']:>4}"
              f"  {row_f['sent_packets']:>9}"
              f"  {row_f['delivered_bytes']:>15}"
              f"  {delta:>+12}")
    stats = fluid.fluid_stats
    print(f"  fluid: synthesized={stats['packets_synthesized']}"
          f" time_saved={stats['time_saved_s']:.2f}s"
          f" resumes={stats['resumes']}"
          f" settles={stats['settles']}"
          f" clock_reads={stats['clock_reads']}"
          f" closed_forms={stats['closed_forms']}"
          f" refusals={stats['refusals']}"
          f" materializations={stats['materializations']}")
    print(f"  digest {fluid.control_digest}")
    if not result["equivalent"]:
        print(f"  NOT EQUIVALENT: digests_equal={result['digests_equal']}"
              f" flow_mismatches={len(result['flow_mismatches'])}")
        for mismatch in result["flow_mismatches"][:5]:
            print(f"    packet={mismatch['packet']} fluid={mismatch['fluid']}")
        if args.assert_equivalent:
            return 1
    elif args.assert_equivalent:
        print("  equivalent: fluid run matches the packet oracle")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LiveSec reproduction: terminal demos of the system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    experiment = sub.add_parser(
        "experiment",
        help="run paper experiments from the catalogue (no ids: list them)",
    )
    experiment.add_argument("ids", nargs="*", metavar="ID",
                            help="experiment ids (E1 E2 ...) or 'all'")
    experiment.add_argument("--format", default="text",
                            choices=["text", "json", "markdown"])
    experiment.set_defaults(func=cmd_experiment)

    stats = sub.add_parser(
        "stats", help="run traffic and print the observability snapshot"
    )
    stats.add_argument("--quick", action="store_true",
                       help="small topology, short run (CI smoke test)")
    stats.add_argument("--seconds", type=float, default=4.0,
                       help="traffic duration (ignored with --quick)")
    stats.add_argument("--format", default="text",
                       choices=["text", "json", "prometheus"])
    stats.set_defaults(func=cmd_stats)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection run scoring controller recovery",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed (same seed => identical run)")
    chaos.add_argument("--fail-mode", default="open",
                       choices=["open", "closed"], dest="fail_mode",
                       help="policy behavior when no healthy element remains")
    chaos.add_argument("--crash", default="one", choices=["one", "all"],
                       help="crash one IDS (peers absorb) or the whole fleet")
    chaos.add_argument("--duration", type=float, default=12.0,
                       help="simulated seconds to run")
    chaos.add_argument("--channel-drop-rate", type=float, default=0.0,
                       dest="channel_drop_rate",
                       help="also drop this fraction of OpenFlow messages")
    chaos.add_argument("--scenario", default="element-crash",
                       choices=["element-crash", "compromised-switch",
                                "shard-failover"],
                       help="element-crash (default) kills service VMs;"
                            " compromised-switch turns the data plane"
                            " adversarial under forwarding accountability;"
                            " shard-failover roams a host across pods then"
                            " kills a controller shard")
    chaos.add_argument("--shards", type=int, default=1,
                       help="run the element-crash scenario on a sharded"
                            " control plane with this many shards")
    chaos.add_argument("--assert-rehomed", action="store_true",
                       dest="assert_rehomed",
                       help="exit 1 unless a dead shard's switches re-homed"
                            " and the roamed session survived its handoff"
                            " (shard-failover scenario)")
    chaos.add_argument("--variant", default="skip-waypoint",
                       choices=["skip-waypoint", "misroute", "tag-strip"],
                       help="compromised-switch misbehavior variant")
    chaos.add_argument("--assert-detected", action="store_true",
                       help="exit 1 unless a switch was quarantined"
                            " (compromised-switch scenario)")
    chaos.add_argument("--format", default="text", choices=["text", "json"])
    chaos.add_argument("--assert-recovered", action="store_true",
                       dest="assert_recovered",
                       help="exit 1 if any session is left unrecovered")
    chaos.add_argument("--record", metavar="PATH", default=None,
                       help="save the run's event log as JSONL for"
                            " 'repro replay'")
    chaos.set_defaults(func=cmd_chaos)

    replay = sub.add_parser(
        "replay",
        help="reconstruct a recorded run's view from a JSONL event log",
    )
    replay.add_argument("file", help="JSONL event-log file (from"
                                     " 'chaos --record' or EventLog.save)")
    replay.add_argument("--at", type=float, default=None,
                        help="render the view at this moment (default:"
                             " after the last event)")
    replay.add_argument("--format", default="text",
                        choices=["text", "json"])
    replay.add_argument("--digest-only", action="store_true",
                        dest="digest_only",
                        help="print only the event count and sha256 digest")
    replay.set_defaults(func=cmd_replay)

    fluid = sub.add_parser(
        "fluid",
        help="fluid fast-forward kernel vs the packet-level oracle",
    )
    fluid.add_argument("--seed", type=int, default=0,
                       help="workload seed (default 0)")
    fluid.add_argument("--flows", type=int, default=8,
                       help="CBR flows in the mix (default 8)")
    fluid.add_argument("--seconds", type=float, default=4.0,
                       help="traffic window in sim-seconds (default 4)")
    fluid.add_argument("--link-flap", action="store_true",
                       help="down/restore an access link mid-run")
    fluid.add_argument("--tolerance", type=int, default=None,
                       help="allowed per-flow delivered-frame delta"
                            " (default 0; 2 with --link-flap)")
    fluid.add_argument("--assert-equivalent", action="store_true",
                       help="exit 1 unless the fluid run matches the oracle")
    fluid.set_defaults(func=cmd_fluid)

    shards = sub.add_parser(
        "shards",
        help="boot a sharded control plane and print the fabric status",
    )
    shards.add_argument("--shards", type=int, default=4,
                        help="number of controller shards")
    shards.add_argument("--topology", default="linear",
                        choices=["linear", "fattree"],
                        help="physical fabric (fattree partitions per-pod"
                             " when shards == k)")
    shards.add_argument("--seconds", type=float, default=2.0,
                        help="simulated seconds of traffic before the"
                             " status snapshot")
    shards.add_argument("--format", default="text",
                        choices=["text", "json"])
    shards.set_defaults(func=cmd_shards)

    ops = sub.add_parser(
        "ops",
        help="runtime app operations: live status, stop/reload/restart"
             " an app mid-traffic, session-journal digest",
    )
    ops.add_argument("--app", default="monitor",
                     help="target app name (default: monitor)")
    ops.add_argument("--action", default="status",
                     choices=["status", "stop", "reload", "restart",
                              "cycle"],
                     help="what to do mid-traffic; 'cycle' runs"
                          " stop -> reload (changed config) -> start")
    ops.add_argument("--seconds", type=float, default=3.0,
                     help="total simulated traffic window (default 3)")
    ops.add_argument("--format", default="text", choices=["text", "json"])
    ops.add_argument("--record", metavar="PATH", default=None,
                     help="save the event log as JSONL and verify the"
                          " journal replays to the same digest")
    ops.set_defaults(func=cmd_ops)

    journal = sub.add_parser(
        "journal",
        help="replay a recorded run's session journal end to end",
    )
    journal.add_argument("file", help="JSONL event-log file (from"
                                      " 'ops --record' or EventLog.save)")
    journal.add_argument("--session", type=int, default=None,
                         help="show one session's full history")
    journal.add_argument("--format", default="text",
                         choices=["text", "json"])
    journal.add_argument("--digest-only", action="store_true",
                         dest="digest_only",
                         help="print only the record count and digest")
    journal.set_defaults(func=cmd_journal)

    apps = sub.add_parser(
        "apps",
        help="list loaded controller apps, subscriptions and counters",
    )
    apps.add_argument("--format", default="text", choices=["text", "json"])
    apps.add_argument("--no-traffic", action="store_true", dest="no_traffic",
                      help="skip the warm-up traffic (counters stay zero)")
    apps.set_defaults(func=cmd_apps)

    policy = sub.add_parser(
        "policy",
        help="compile, verify and hot-reload policy intent files",
    )
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)
    check = policy_sub.add_parser(
        "check",
        help="compile + conflict-verify a policy file (no network built);"
             " exit 1 on error findings",
    )
    check.add_argument("file", help="policy JSON (v1 'policies' or"
                                    " v2 'intents' schema)")
    check.add_argument("--format", default="text", choices=["text", "json"])
    check.set_defaults(func=cmd_policy_check)
    reload_ = policy_sub.add_parser(
        "reload",
        help="hot-reload a policy file into a running demo scenario",
    )
    reload_.add_argument("file", help="policy JSON to swap in mid-run")
    reload_.add_argument("--record", metavar="PATH", default=None,
                         help="save the run's event log as JSONL for"
                              " 'repro replay'")
    reload_.set_defaults(func=cmd_policy_reload)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
