"""Canned chaos scenarios: a seeded fault plan over a known deployment.

:func:`run_chaos_scenario` is what ``python -m repro chaos``, the
chaos benchmark, and ``make chaos-smoke`` all drive.  It builds the
standard steered deployment (linear topology, an IDS chain policy, a
small IDS fleet), starts long-running UDP sessions, crashes one or all
elements mid-run, and reports how the controller's failure-recovery
machinery fared -- including the determinism digest two same-seed runs
must agree on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.deployment import build_livesec_network
from repro.core.policy import PolicyTable
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.topologies import GATEWAY_IP
from repro.workloads import CbrUdpFlow
from repro.workloads.scenarios import gateway_ids_policies

CRASH_AT_S = 5.0


@dataclass
class ChaosReport:
    """The outcome of one seeded chaos run."""

    seed: int
    fail_mode: str
    crash: str
    duration_s: float
    injected: Dict[str, int]
    affected_sessions: int
    recovered_sessions: int
    failed_open_sessions: int
    blocked_sessions: int
    torn_down_sessions: int
    unrecovered_sessions: int
    time_to_detect_s: Dict[str, float]
    time_to_recover_s: Dict[str, float]
    install_retries: int
    install_failures: int
    events: int
    event_digest: str
    event_lines: List[str] = field(default_factory=list, repr=False)
    # Per-fault-kind TTD/TTR latency samples (min/mean/max/count).
    per_fault: Dict[str, dict] = field(default_factory=dict)
    # Compromised-switch runs: the variant, the datapaths convicted and
    # quarantined, and how many path violations were raised.
    variant: Optional[str] = None
    quarantined_dpids: List[int] = field(default_factory=list)
    path_violations: int = 0
    # Sharded runs: fabric size and what the shard protocol did.
    shards: int = 1
    rehomed_switches: int = 0
    handoff_sessions: int = 0
    roam_survived: Optional[bool] = None
    flows_surviving: Optional[str] = None

    def to_dict(self) -> dict:
        data = {
            key: getattr(self, key)
            for key in (
                "seed", "fail_mode", "crash", "duration_s", "injected",
                "affected_sessions", "recovered_sessions",
                "failed_open_sessions", "blocked_sessions",
                "torn_down_sessions", "unrecovered_sessions",
                "time_to_detect_s", "time_to_recover_s",
                "install_retries", "install_failures",
                "events", "event_digest", "per_fault",
            )
        }
        if self.variant is not None:
            data["variant"] = self.variant
            data["quarantined_dpids"] = self.quarantined_dpids
            data["path_violations"] = self.path_violations
        if self.shards > 1:
            data["shards"] = self.shards
            data["rehomed_switches"] = self.rehomed_switches
            data["handoff_sessions"] = self.handoff_sessions
            if self.roam_survived is not None:
                data["roam_survived"] = self.roam_survived
            if self.flows_surviving is not None:
                data["flows_surviving"] = self.flows_surviving
        return data

    def render_text(self) -> str:
        lines = [
            f"chaos run: seed={self.seed} fail_mode={self.fail_mode}"
            f" crash={self.crash} duration={self.duration_s:g}s",
            f"  faults injected : {self.injected}",
            f"  sessions        : affected={self.affected_sessions}"
            f" recovered={self.recovered_sessions}"
            f" fail-open={self.failed_open_sessions}"
            f" blocked={self.blocked_sessions}"
            f" torn-down={self.torn_down_sessions}"
            f" unrecovered={self.unrecovered_sessions}",
        ]
        if self.time_to_detect_s:
            lines.append(
                "  time-to-detect  : "
                f"mean={self.time_to_detect_s['mean']:.3f}s"
                f" max={self.time_to_detect_s['max']:.3f}s"
                f" (n={self.time_to_detect_s['count']:g})"
            )
        if self.time_to_recover_s:
            lines.append(
                "  time-to-recover : "
                f"mean={self.time_to_recover_s['mean']:.3f}s"
                f" max={self.time_to_recover_s['max']:.3f}s"
                f" (n={self.time_to_recover_s['count']:g})"
            )
        if self.variant is not None:
            lines.append(
                f"  accountability  : variant={self.variant}"
                f" violations={self.path_violations}"
                f" quarantined={self.quarantined_dpids}"
            )
        if self.shards > 1:
            shard_line = (
                f"  shard fabric    : shards={self.shards}"
                f" rehomed={self.rehomed_switches}"
                f" handoffs={self.handoff_sessions}"
            )
            if self.roam_survived is not None:
                shard_line += f" roam-survived={self.roam_survived}"
            if self.flows_surviving is not None:
                shard_line += f" flows-after-crash={self.flows_surviving}"
            lines.append(shard_line)
        if self.per_fault:
            lines.append("  per-fault latency (sim seconds):")
            lines.append(
                "    {:<22} {:>24} {:>24}".format(
                    "fault", "time-to-detect", "time-to-recover"
                )
            )
            for kind in sorted(self.per_fault):
                row = self.per_fault[kind]
                lines.append("    {:<22} {:>24} {:>24}".format(
                    kind,
                    _stats_cell(row.get("time_to_detect_s")),
                    _stats_cell(row.get("time_to_recover_s")),
                ))
        lines.append(
            f"  installs        : retries={self.install_retries}"
            f" failures={self.install_failures}"
        )
        lines.append(
            f"  event log       : {self.events} events,"
            f" digest {self.event_digest[:16]}"
        )
        return "\n".join(lines)


def _stats_cell(stats: Optional[dict]) -> str:
    if not stats:
        return "-"
    return (
        f"mean={stats['mean']:.3f} max={stats['max']:.3f}"
        f" (n={stats['count']})"
    )


def _hist_summary(snapshot, name: str) -> Dict[str, float]:
    metric = snapshot.get(name)
    if metric is None or metric.count == 0:
        return {}
    return {
        "count": float(metric.count),
        "mean": metric.sum / metric.count,
        "min": metric.min,
        "max": metric.max,
    }


def _score(
    net,
    injector: FaultInjector,
    *,
    fail_mode: str,
    crash: str,
    duration_s: float,
    record_jsonl: Optional[str],
    latency: str = "recovery.",
    **extra,
) -> ChaosReport:
    """Score a finished run, on any deployment shape.

    ``latency`` is the metric prefix of the scenario's headline
    time-to-detect / time-to-recover histograms (the injector's fault
    families); ``extra`` carries the scenario's own report fields.
    ``record_jsonl`` saves the first controller's log -- the replay
    tool reads one log at a time.
    """
    summary = injector.summary()
    snapshot = net.metrics_snapshot()
    counters = snapshot.counters()
    event_lines = net.event_lines()
    if record_jsonl is not None:
        net.controller.log.save(record_jsonl)
    return ChaosReport(
        seed=injector.plan.seed,
        fail_mode=fail_mode,
        crash=crash,
        duration_s=duration_s,
        injected=summary["injected"],
        affected_sessions=summary["affected_sessions"],
        recovered_sessions=summary["recovered_sessions"],
        failed_open_sessions=summary["failed_open_sessions"],
        blocked_sessions=summary["blocked_sessions"],
        torn_down_sessions=summary["torn_down_sessions"],
        unrecovered_sessions=summary["unrecovered_sessions"],
        time_to_detect_s=_hist_summary(snapshot, latency + "time_to_detect_s"),
        time_to_recover_s=_hist_summary(
            snapshot, latency + "time_to_recover_s"
        ),
        install_retries=int(counters.get("controller.install_retries", 0)),
        install_failures=int(counters.get("controller.install_failures", 0)),
        events=len(event_lines),
        event_digest=net.event_digest(),
        event_lines=event_lines,
        per_fault=summary["per_fault"],
        path_violations=int(counters.get("accountability.violations", 0)),
        shards=len(net.controllers),
        rehomed_switches=int(counters.get("sharding.rehomed_switches", 0)),
        handoff_sessions=int(counters.get("sharding.handoff_sessions", 0)),
        **extra,
    )


def chaos_policy_table(fail_mode: str) -> PolicyTable:
    """The scenario's policy: everything to the gateway rides an IDS
    chain, with the requested fail mode (``chaos-ids`` is in every
    pinned chaos digest)."""
    return gateway_ids_policies("chaos-ids", fail_mode=fail_mode)


def run_chaos_scenario(
    seed: int = 0,
    fail_mode: str = "open",
    crash: str = "one",
    duration_s: float = 12.0,
    num_elements: int = 3,
    num_hosts: int = 4,
    channel_drop_rate: float = 0.0,
    plan: Optional[FaultPlan] = None,
    record_jsonl: Optional[str] = None,
    shards: int = 1,
) -> ChaosReport:
    """Build, fault, run, and score one chaos scenario.

    ``crash='one'`` kills a single IDS at t=5s with healthy peers left
    (every affected session must fail over); ``crash='all'`` kills the
    whole fleet (the policy's fail mode decides what happens).  A
    custom ``plan`` overrides the built-in crash schedule entirely.
    ``record_jsonl`` saves the run's event log as JSON Lines, ready
    for ``python -m repro replay``.

    ``shards > 1`` runs the same scenario on a sharded control plane:
    the elements land on different shards' switches, so ``crash='one'``
    forces the dead element's owner to fail sessions over onto replicas
    it only knows through the federated directory.
    """
    if fail_mode not in ("open", "closed"):
        raise ValueError(f"fail_mode must be open|closed (got {fail_mode})")
    if crash not in ("one", "all"):
        raise ValueError(f"crash must be one|all (got {crash})")
    num_as = max(3, shards)
    deployment = dict(
        topology="linear",
        elements=[("ids", num_elements)],
        num_as=num_as,
        hosts_per_as=max(1, (num_hosts + num_as - 1) // num_as),
        element_timeout_s=1.5,
        dispatcher="polling",
    )
    net = build_livesec_network(
        num_shards=shards,
        policies=lambda: chaos_policy_table(fail_mode),
        **deployment,
    )
    if plan is None:
        plan = FaultPlan(seed=seed)
        targets = (
            [net.elements[0].name] if crash == "one"
            else [element.name for element in net.elements]
        )
        for name in targets:
            plan.element_crash(CRASH_AT_S, name)
        if channel_drop_rate > 0:
            plan.channel_chaos(
                2.0, "*", drop_rate=channel_drop_rate,
                until_s=duration_s - 1.0,
            )
    injector = FaultInjector(net, plan)
    injector.arm()
    net.start()
    for host in net.topology.user_hosts[:num_hosts]:
        flow = CbrUdpFlow(
            net.sim, host, GATEWAY_IP,
            rate_bps=2e6, duration_s=duration_s,
        )
        flow.start()
    net.run(duration_s)

    return _score(
        net, injector, fail_mode=fail_mode, crash=crash,
        duration_s=duration_s, record_jsonl=record_jsonl,
    )


COMPROMISE_AT_S = 5.0


def _core_uplink_port(topology, switch) -> int:
    """The switch's port into the legacy core (misroute divert target)."""
    for number in sorted(switch.ports):
        port = switch.ports[number]
        if port.link is None:
            continue
        peer = port.peer()
        if peer is not None and any(
            peer.node is legacy for legacy in topology.legacy
        ):
            return number
    raise ValueError(f"{switch.name} has no core uplink")


def run_compromised_switch_scenario(
    seed: int = 0,
    variant: str = "skip-waypoint",
    duration_s: float = 12.0,
    num_elements: int = 3,
    record_jsonl: Optional[str] = None,
    shards: int = 1,
) -> ChaosReport:
    """A compromised data plane under forwarding accountability.

    The deployment is the standard steered linear network with
    accountability enabled: every session's forward path carries an
    SDNsec-style proof chain.  At t=5s the middle AS switch -- host to
    the fleet's second IDS, but none of the traffic sources -- turns
    adversarial in one of three ways:

    * ``skip-waypoint``: it bypasses its local element (inspection
      evasion) -- caught by the egress proof, whose mark chain is one
      stamp short exactly at the compromised dpid;
    * ``misroute``: it diverts tagged frames out its core uplink, where
      the legacy core loses them -- caught by the absence audit when
      its sessions' proofs go silent (no stray tagged frame punts);
    * ``tag-strip``: it strips proof state entirely -- caught by the
      absence audit when its sessions' proofs go silent while paths
      avoiding the switch stay healthy.

    Detection raises PATH_VIOLATION, quarantines the dpid, and the
    controller re-steers the affected sessions onto replicas homed on
    honest switches; the per-fault TTD/TTR table scores the loop.

    ``shards`` splits the three AS switches over up to three controller
    shards.  At two, the compromised switch's shard is not the one
    holding the sessions it lies about, so evidence and the quarantine
    cross the fabric; at three, each shard dispatches to its own local
    IDS and no session's chain crosses the compromised switch.
    """
    net = build_livesec_network(
        num_shards=shards,
        topology="linear",
        policies=lambda: chaos_policy_table("open"),
        elements=[("ids", num_elements)],
        num_as=3,
        hosts_per_as=2,
        element_timeout_s=1.5,
        dispatcher="polling",
        accountability=True,
    )
    compromised = net.topology.as_switches[1]
    port = None
    if variant == "misroute":
        port = _core_uplink_port(net.topology, compromised)
    plan = FaultPlan(seed=seed).switch_compromise(
        COMPROMISE_AT_S, compromised.name, variant=variant, port=port,
    )
    injector = FaultInjector(net, plan)
    injector.arm()
    net.start()
    # Traffic only from hosts *not* attached to the compromised switch:
    # it sits on the inspection path purely as an element's home, so a
    # conviction is attributable to forwarding misbehavior alone.
    hosts = [
        host for host in net.topology.user_hosts
        if not host.name.startswith("h2_")
    ]
    for host in hosts:
        CbrUdpFlow(
            net.sim, host, GATEWAY_IP,
            rate_bps=2e6, duration_s=duration_s,
        ).start()
    net.run(duration_s)

    return _score(
        net, injector, fail_mode="open", crash="compromise",
        duration_s=duration_s, record_jsonl=record_jsonl,
        latency="accountability.", variant=variant,
        quarantined_dpids=sorted(set().union(
            *(controller.quarantined_dpids for controller in net.controllers)
        )),
    )


ROAM_AT_S = 4.5
SHARD_CRASH_AT_S = 6.0
SHARD_RESTART_AT_S = 10.0


def run_shard_failover_scenario(
    seed: int = 0,
    duration_s: float = 12.0,
    k: int = 4,
    record_jsonl: Optional[str] = None,
) -> ChaosReport:
    """The shard fabric under its two defining stresses, in one run.

    A k-ary fat tree partitioned per-pod across ``k`` controller
    shards, one IDS per pod, every host streaming UDP through the IDS
    chain toward the gateway (pod 0).  Then:

    * at t=4.5s the last pod's host roams onto a pod-0 edge switch --
      a cross-shard HOST_MOVE, so its established session must ride
      the handoff protocol (state serialized to shard 0, ingress rules
      re-installed there, same session id);
    * at t=6s shard 1 crashes.  The coordinator's liveness scan must
      declare it down and re-home its datapaths onto the survivors,
      while the crashed shard's established sessions keep forwarding
      on data-plane state the whole time;
    * at t=10s shard 1 restarts, live over an empty book.

    The report scores both: ``roam_survived`` is the handoff verdict,
    ``flows_surviving`` counts the crashed pod's flows still delivering
    bytes to the gateway after the crash, and the shard TTD/TTR
    histograms land in the usual detect/recover columns.
    """
    if k < 2 or k % 2:
        raise ValueError(f"k must be even and >= 2 (got {k})")
    net = build_livesec_network(
        num_shards=k,
        topology="fattree",
        k=k,
        hosts_per_edge=1,
        policies=lambda: chaos_policy_table("open"),
        element_timeout_s=1.5,
        dispatcher="polling",
    )
    # One IDS per pod, homed on the pod's first edge OvS: every shard
    # owns a replica, so re-steering after the crash stays local while
    # the directory still federates the full fleet.
    for shard in range(k):
        dpid = net.shard_map.owned_by(shard)[0]
        switch = next(
            s for s in net.topology.as_switches if s.dpid == dpid
        )
        net.add_element("ids", switch)
    crashed_shard = 1
    plan = FaultPlan(seed=seed).shard_crash(SHARD_CRASH_AT_S, crashed_shard,
                                            restart_at_s=SHARD_RESTART_AT_S)
    injector = FaultInjector(net, plan)
    injector.arm()
    net.start()

    gateway = net.topology.gateway
    flows = {
        host.name: CbrUdpFlow(
            net.sim, host, GATEWAY_IP,
            rate_bps=2e6, duration_s=duration_s,
        ).start()
        for host in net.topology.user_hosts
    }

    # Bytes the gateway has seen per crashed-pod flow, sampled just
    # after the crash: survival means the count keeps growing.
    crashed_dpids = set(net.shard_map.owned_by(crashed_shard))
    crashed_flows = {
        name: flow for name, flow in flows.items()
        if net.topology.attachments[name].switch.dpid in crashed_dpids
    }
    at_crash: Dict[int, int] = {}

    def _sample_goodput() -> None:
        for flow in crashed_flows.values():
            at_crash[flow.flow_id] = gateway.received_bits(flow.flow_id)

    net.sim.post_at(SHARD_CRASH_AT_S + 0.05, _sample_goodput)

    # Cross-pod roam: the last edge switch's host moves onto pod 0's
    # second edge switch (dpid 2) -- different shard, so the session
    # must hand off.
    roamer_name = f"h{k * k // 2}_1"
    roamer = net.topology.host_by_name(roamer_name)
    net.sim.run(until=ROAM_AT_S)
    old_owner = net.owner(net.topology.attachments[roamer_name].switch.dpid)
    roam_session_ids = {
        session.session_id
        for session in old_owner.sessions.sessions_of_user(roamer.mac)
    }
    destination = next(s for s in net.topology.as_switches if s.dpid == 2)
    net.topology.move_host(roamer_name, destination)
    roamer.announce()
    net.sim.run(until=max(duration_s, SHARD_CRASH_AT_S + 4.0))

    new_owner = net.owner(2)
    adopted_ids = {
        session.session_id
        for session in new_owner.sessions.sessions_of_user(roamer.mac)
        if not session.blocked
    }
    roam_survived = bool(roam_session_ids & adopted_ids)
    survivors = sum(
        1 for flow in crashed_flows.values()
        if gateway.received_bits(flow.flow_id)
        > at_crash.get(flow.flow_id, 0)
    )

    return _score(
        net, injector, fail_mode="open", crash="shard",
        duration_s=duration_s, record_jsonl=record_jsonl,
        latency="recovery.shard_", roam_survived=roam_survived,
        flows_surviving=f"{survivors}/{len(crashed_flows)}",
    )
