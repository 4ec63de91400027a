"""The five seeded workloads of the perf ledger.

Each workload builds a deployment through the program's public
constructors, schedules its traffic on the simulator's clock (open
loop in *simulated* time: flow *i* is due at a fixed sim instant
whether or not earlier flows are set up), and checks its own outputs.
The program receives only built objects and schedules; every random
draw descends from ``--seed``.

The seed decides *which* hosts, ports, phases and zones are used, not
*how much* work there is: draws are stratified so that two seeds offer
the same number of frames over the same mix of path lengths, user
profiles and fault times.  Without that, seed-to-seed variation in
offered work (a Poisson campus day varies by 17 % in events) would be
as large as the regression bound.
"""

from __future__ import annotations

import math
import os
import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.deployment import build_livesec_network, build_sharded_network
from repro.core.events import EventKind
from repro.core.journal import SessionJournal
from repro.core.policy import FlowSelector, PolicyAction, PolicyTable
from repro.core.policy_compiler import PolicyIntent, compile_intents
from repro.faults import FaultInjector, FaultPlan
from repro.net.packet import IP_PROTO_UDP
from repro.workloads.flows import (
    AttackWebFlow,
    CbrUdpFlow,
    PortScanFlow,
    VirusDownloadFlow,
)
from repro.workloads.users import PROFILES, UserBehavior

import stats

GATEWAY_IP = "10.255.255.254"
#: ``net.start()`` spends 1.5 sim-s on discovery and 0.5 on host
#: bring-up; fault times are absolute, so plans add this offset.
START_SETTLE_S = 2.0

NAMES = (
    "steady_packet", "steady_fluid",
    "session_burst_1shard", "session_burst_8shard",
    "campus_chaos",
)


class Workload:
    """One seeded scenario: build, start, populate, run, read, verify.

    The worker calls the phases in that order, each under its own span;
    ``run`` (plus ``read`` where a workload has one) is the timed
    region.  ``attempted``/``failures`` are filled by :meth:`verify`.
    """

    name = ""
    #: Simulator timer events that poll the worker's speed calibrator
    #: during a run, sized so the busy part of the run polls every few
    #: milliseconds of wall time.  They are part of every run, traced
    #: or not, and of ``net.simulator.events``.
    polls = 500

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.net = None
        self.sim_duration_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Outside-probe rows a workload's read phase fills in.
        self.read_timings: Dict[str, float] = {}

    # Phases -----------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        self.net.start()

    def populate(self) -> None:
        """Load resident state and schedule the traffic."""
        raise NotImplementedError

    def run(self) -> None:
        self.net.run(self.sim_duration_s)

    def read(self, poll: Callable[[], float]) -> None:
        """Post-run reads that belong to the timed region.  ``poll`` is
        called between operations so calibration keeps sampling; it
        returns the seconds a calibration chunk took, if one ran."""

    def verify(self) -> None:
        raise NotImplementedError

    # Results ----------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def fail_everything(self, message: str) -> None:
        """A failed workload-level check counts every flow failed."""
        self.fail(message)
        self.failed = self.attempted

    def delivered_bytes(self) -> int:
        raise NotImplementedError

    def sim_metrics(self) -> Dict[str, Optional[float]]:
        return {
            "sim.goodput_mbps": (
                self.delivered_bytes() * 8.0 / self.sim_duration_s / 1e6
            ),
        }

    def digests(self) -> Dict[str, str]:
        return {"event_digest": self.net.controller.log.digest()}

    def controllers(self) -> list:
        return [self.net.controller]

    def injector_summary(self) -> Optional[dict]:
        return None


def _hosts_by_switch(net) -> List[list]:
    """User hosts grouped by their access switch, in dpid order."""
    groups: Dict[int, list] = {}
    for host in net.topology.hosts:
        if host is net.topology.gateway:
            continue
        switch = net.topology.attachments[host.name].switch
        groups.setdefault(switch.dpid, []).append(host)
    return [groups[dpid] for dpid in sorted(groups)]


# ----------------------------------------------------------------------
# steady_packet / steady_fluid


class Steady(Workload):
    """200 small-packet CBR flows between hosts, no policy, no elements.

    ``steady_packet`` is bare forwarding at a small packet size;
    ``steady_fluid`` is the identical traffic with the fluid kernel
    attached and ten times the simulated span.
    """

    NUM_AS = 8
    HOSTS_PER_AS = 16
    FLOWS = 200
    RATE_BPS = 100e3
    PACKET_SIZE = 250
    START_WINDOW_SLOTS = 10  # x 10 ms = the 0.1 s start window
    #: Flows stop this long before the run ends so the last frames land.
    DRAIN_S = 0.25
    MIN_TIME_SAVED_SHARE = 0.9

    def __init__(self, seed: int, scale: float, fluid: bool):
        super().__init__(seed)
        self.fluid = fluid
        self.name = "steady_fluid" if fluid else "steady_packet"
        if fluid:
            # Under the fluid kernel every event, even an idle timer,
            # back-fills the suspended population (~0.7 ms at 200
            # flows): 1000 polls made this workload 30 % slower.
            self.polls = 250
        self.sim_duration_s = (40.0 if fluid else 4.0) * scale
        self.flows: List[Tuple[CbrUdpFlow, object]] = []

    def build(self) -> None:
        self.net = build_livesec_network(
            "linear", num_as=self.NUM_AS, hosts_per_as=self.HOSTS_PER_AS,
            idle_timeout_s=60.0, fluid=self.fluid,
        )

    def populate(self) -> None:
        groups = _hosts_by_switch(self.net)
        rng = self.rng
        for index in range(self.FLOWS):
            # Every seed offers the same path mix: one flow in eight
            # stays inside its switch, the rest cross the core.
            src_as = index % self.NUM_AS
            dst_as = (src_as + (index // self.NUM_AS)) % self.NUM_AS
            src = rng.choice(groups[src_as])
            dst = rng.choice([h for h in groups[dst_as] if h is not src])
            flow = CbrUdpFlow(
                self.net.sim, src, dst.ip,
                rate_bps=self.RATE_BPS, packet_size=self.PACKET_SIZE,
                duration_s=self.sim_duration_s - self.DRAIN_S,
                sport=30000 + index, dport=9000 + rng.randrange(500),
            )
            flow.start(delay_s=self._start_offset(index))
            self.flows.append((flow, dst))

    def _start_offset(self, index: int) -> float:
        """A start inside the 0.1 s window whose 20 ms pacing never has
        a frame on a wire at a fluid-governor tick.

        The governor ticks every 50 ms from the first flow's start and
        refuses to suspend while any hop holds a frame
        (``queue-backlog``), so a flow whose phase against that 10 ms
        grid falls inside a frame's sub-millisecond flight time blocks
        fast-forward for the whole population, for the whole run.
        Flow 0 anchors the grid; the rest keep 2..7 ms clear of it.
        """
        if index == 0:
            return 0.0
        slot = self.rng.randrange(self.START_WINDOW_SLOTS)
        return slot * 0.01 + self.rng.uniform(0.002, 0.007)

    def verify(self) -> None:
        self.attempted = len(self.flows)
        tolerance = 2 * self.PACKET_SIZE
        for flow, dst in self.flows:
            lost = flow.bytes_sent - flow.delivered_bytes(dst)
            if flow.bytes_sent == 0 or abs(lost) > tolerance:
                self.failed += 1
                self.fail(
                    f"flow {flow.sport}: sent {flow.bytes_sent} B,"
                    f" delivered {flow.bytes_sent - lost} B"
                )
        fluid = self.net.fluid
        if self.fluid:
            share = fluid.time_saved_s / self.sim_duration_s
            if share < self.MIN_TIME_SAVED_SHARE:
                self.fail_everything(
                    f"fluid saved {share:.3f} of the run"
                    f" (< {self.MIN_TIME_SAVED_SHARE}):"
                    f" refusals {fluid.refusals}"
                )
        elif fluid is not None and fluid.fastforwards:
            self.fail_everything("packet run fast-forwarded")

    def delivered_bytes(self) -> int:
        return sum(flow.delivered_bytes(dst) for flow, dst in self.flows)


# ----------------------------------------------------------------------
# session_burst_1shard / session_burst_8shard


def _burst_intents(rng: random.Random) -> List[PolicyIntent]:
    """The IDS chain on gateway traffic, scanned after 63 seeded
    work-zone intents that no flow of the burst matches."""
    intents = [PolicyIntent(
        name="inspect-internet",
        action=PolicyAction.CHAIN,
        selector=FlowSelector(dst_ip=GATEWAY_IP),
        service_chain=("ids",),
        priority=200,
    )]
    for index, octet in enumerate(rng.sample(range(256), 63)):
        intents.append(PolicyIntent(
            name=f"zone-{index}",
            action=rng.choice((PolicyAction.ALLOW, PolicyAction.DROP)),
            dst_zone=f"172.31.{octet}.0/24",
            priority=300 + index,
        ))
    return intents


class SessionBurst(Workload):
    """A burst of brand-new 4-packet flows to the gateway over a fabric
    holding 100k resident users: per-session control-plane cost."""

    NUM_SWITCHES = 16
    HOSTS_PER_AS = 4
    USERS = 100_000
    FLOWS = 512  # eight per host, so every seed loads each switch alike
    SPACING_S = 0.003
    PACKETS = 4
    DPORT = 9000
    TAIL_S = 3.0
    polls = 1200  # two thirds of them fall in the idle tail

    def __init__(self, seed: int, scale: float, num_shards: int):
        super().__init__(seed)
        self.num_shards = num_shards
        self.name = f"session_burst_{num_shards}shard"
        per_host = max(1, round(self.FLOWS * scale
                                / (self.NUM_SWITCHES * self.HOSTS_PER_AS)))
        self.num_flows = per_host * self.NUM_SWITCHES * self.HOSTS_PER_AS
        self.num_users = int(self.USERS * scale)
        self.sim_duration_s = self.num_flows * self.SPACING_S + self.TAIL_S
        self.flows: List[CbrUdpFlow] = []
        self.due_at: Dict[int, float] = {}
        self.first_seen_at: Dict[int, float] = {}
        self.sessions_before = 0

    def build(self) -> None:
        intents = _burst_intents(self.rng)

        def policies() -> PolicyTable:
            compiled = compile_intents(intents, service_types=("ids",))
            if not compiled.ok:
                raise RuntimeError(compiled.report())
            table = PolicyTable()
            table.apply_compiled(compiled.table)
            return table

        self.net = build_sharded_network(
            num_shards=self.num_shards, topology="linear",
            policies=policies, elements=[("ids", self.NUM_SWITCHES)],
            num_as=self.NUM_SWITCHES, hosts_per_as=self.HOSTS_PER_AS,
        )

    def populate(self) -> None:
        net = self.net
        for index in range(self.num_users):
            dpid = (index % self.NUM_SWITCHES) + 1
            net.member_of(dpid).adopt_host(
                "02:fe:{:02x}:{:02x}:{:02x}:{:02x}".format(
                    (index >> 24) & 0xFF, (index >> 16) & 0xFF,
                    (index >> 8) & 0xFF, index & 0xFF,
                ),
                "172.{}.{}.{}".format(
                    16 + (index >> 16), (index >> 8) & 0xFF, index & 0xFF
                ),
                dpid, 2000 + index,
            )
        net.gateway.on_app(IP_PROTO_UDP, self.DPORT, self._on_gateway_frame)
        hosts = [h for group in _hosts_by_switch(net) for h in group]
        self.rng.shuffle(hosts)
        sports = self.rng.sample(range(20000, 60000), self.num_flows)
        self.sessions_before = net.total_sessions_created()
        now = net.sim.now
        for index in range(self.num_flows):
            flow = CbrUdpFlow(
                net.sim, hosts[index % len(hosts)], GATEWAY_IP,
                rate_bps=1e6, sport=sports[index], dport=self.DPORT,
                max_packets=self.PACKETS,
            )
            delay = index * self.SPACING_S
            flow.start(delay_s=delay)
            self.due_at[flow.flow_id] = now + delay
            self.flows.append(flow)

    def _on_gateway_frame(self, host, frame) -> None:
        self.first_seen_at.setdefault(frame.flow_id, host.sim.now)

    def verify(self) -> None:
        self.attempted = self.num_flows
        gateway = self.net.gateway
        for flow in self.flows:
            want = self.PACKETS * flow.packet_size
            got = flow.delivered_bytes(gateway)
            if got != want:
                self.failed += 1
                self.fail(f"flow {flow.sport}: delivered {got}/{want} B")
        created = self.net.total_sessions_created() - self.sessions_before
        if created != self.num_flows:
            self.fail_everything(
                f"{created} sessions created for {self.num_flows} flows"
            )

    def delivered_bytes(self) -> int:
        gateway = self.net.gateway
        return sum(flow.delivered_bytes(gateway) for flow in self.flows)

    def sim_metrics(self) -> Dict[str, Optional[float]]:
        metrics = super().sim_metrics()
        delays_ms = [
            (self.first_seen_at[flow_id] - due) * 1e3
            for flow_id, due in self.due_at.items()
            if flow_id in self.first_seen_at
        ]
        for p in (50.0, 95.0):
            try:
                value = stats.percentile(delays_ms, p)
            except ValueError:
                value = None  # too few flows at this scale
            metrics[f"sim.setup_ms_p{p:g}"] = value
        return metrics

    def digests(self) -> Dict[str, str]:
        return {"event_digest": self.net.event_digest()}

    def controllers(self) -> list:
        return self.net.controllers


# ----------------------------------------------------------------------
# campus_chaos


def _stratified_exponential(rng: random.Random, mean: float,
                            count: int) -> List[float]:
    """The midpoints of ``count`` equal-probability strata of an
    exponential, in ``rng``'s order."""
    draws = [-mean * math.log(1.0 - (k + 0.5) / count) for k in range(count)]
    rng.shuffle(draws)
    return draws


class CampusChaos(Workload):
    """The paper's campus (Figures 7/8) on a bad day: Wi-Fi and wired
    users running web/SSH/BitTorrent through an l7+ids chain, three
    attacks, two element crashes and a lossy control channel -- then
    the operator's reads over the event log the day produced."""

    DURATION_S = 10.0
    MEAN_SESSION_S = 20.0
    MEAN_GAP_S = 4.0
    USER_RATE_BPS = 100e3
    QUERIES = 200
    REPLAYS = 50
    #: (share of the run, kind): one attack before the faults, one in
    #: the lossy-channel window, one after the second crash.
    ATTACKS = ((0.15, "web"), (0.45, "portscan"), (0.8, "virus"))

    name = "campus_chaos"
    polls = 600

    def __init__(self, seed: int, scale: float):
        super().__init__(seed)
        self.sim_duration_s = self.DURATION_S * scale
        self.queries = max(1, int(self.QUERIES * scale))
        self.replays = max(1, int(self.REPLAYS * scale))
        self.injector: Optional[FaultInjector] = None
        self.journal: Optional[SessionJournal] = None
        self.behaviors: List[UserBehavior] = []
        self.live_journal_digest = ""
        self.replayed_journal_digest = ""

    def build(self) -> None:
        compiled = compile_intents([PolicyIntent(
            name="inspect-internet",
            action=PolicyAction.CHAIN,
            selector=FlowSelector(dst_ip=GATEWAY_IP),
            service_chain=("l7", "ids"),
        )], service_types=("l7", "ids"))
        table = PolicyTable()
        table.apply_compiled(compiled.table)
        net = build_livesec_network(
            "fit", policies=table,
            num_ovs=6, num_aps=4, wired_users=36, wireless_users=12,
            element_timeout_s=1.5, elements=[("ids", 6), ("l7", 3)],
        )
        span = self.sim_duration_s
        plan = FaultPlan(seed=self.seed)
        plan.element_crash(
            START_SETTLE_S + 0.25 * span, net.elements_of_type("ids")[0].name
        )
        plan.element_crash(
            START_SETTLE_S + 0.7 * span, net.elements_of_type("l7")[0].name
        )
        plan.channel_chaos(
            START_SETTLE_S + 0.4 * span, "*", drop_rate=0.1,
            until_s=START_SETTLE_S + 0.6 * span,
        )
        self.injector = FaultInjector(net, plan)
        self.injector.arm()
        self.journal = SessionJournal.attach(net.controller.log)
        self.net = net

    def populate(self) -> None:
        """Schedule the day: who runs which application, when each user
        joins, leaves and rejoins, and who attacks when."""
        net, rng, span = self.net, self.rng, self.sim_duration_s
        users = [h for h in net.topology.hosts if h is not net.topology.gateway]
        wired = [h for h in users if not h.wireless]
        wireless = [h for h in users if h.wireless]
        rng.shuffle(wired)
        rng.shuffle(wireless)
        for offset, profile in enumerate(PROFILES):
            # Each application gets the same share of wired and of
            # Wi-Fi users under every seed.
            hosts = wired[offset::len(PROFILES)] + wireless[offset::len(PROFILES)]
            # The day's (join, stay, gap) triples are the same multiset
            # under every seed, so the offered load is too; the seed
            # deals them to hosts.
            fixed = random.Random(offset)
            days = list(zip(*(
                _stratified_exponential(fixed, mean, len(hosts))
                for mean in (self.MEAN_GAP_S, self.MEAN_SESSION_S,
                             self.MEAN_GAP_S)
            )))
            rng.shuffle(days)
            for host, (join, stay, gap) in zip(hosts, days):
                behavior = UserBehavior(
                    net.sim, host, GATEWAY_IP, profile=profile,
                    rng=random.Random(rng.random()),
                    rate_bps=self.USER_RATE_BPS,
                )
                self.behaviors.append(behavior)
                for at, action in (
                    (join, behavior.join),
                    (join + stay, behavior.leave),
                    (join + stay + gap, behavior.join),
                ):
                    if at < span:
                        net.sim.schedule(at, action)
        for share, kind in self.ATTACKS:
            net.sim.schedule(
                share * span, self._attack, kind, rng.choice(users)
            )

    def _attack(self, kind: str, attacker) -> None:
        sim = self.net.sim
        if kind == "web":
            flow = AttackWebFlow(sim, attacker, GATEWAY_IP,
                                 rate_bps=1e6, duration_s=4.0)
        elif kind == "portscan":
            flow = PortScanFlow(sim, attacker, GATEWAY_IP, ports=30)
        else:
            flow = VirusDownloadFlow(sim, attacker, GATEWAY_IP,
                                     rate_bps=1e6, duration_s=4.0)
        flow.start()

    def read(self, poll: Callable[[], float]) -> None:
        """What an operator does with the day's log: filtered queries,
        point-in-time replays, a digest, a save and a journal rebuild."""
        log = self.net.controller.log
        rng = self.rng
        end = self.net.sim.now
        kinds = sorted(log.counts_by_kind())
        clock = time.perf_counter

        def timed(operation: Callable[[], object], count: int = 1) -> float:
            """Seconds ``count`` calls took, calibration chunks excluded."""
            calibrating = 0.0
            started = clock()
            for _ in range(count):
                operation()
                calibrating += poll()
            return clock() - started - calibrating

        def query() -> None:
            since = rng.uniform(0.0, end)
            log.query(kind=rng.choice(kinds), since=since,
                      until=since + rng.uniform(0.0, end - since))

        path = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "out",
            f"{self.name}.{os.getpid()}.jsonl",
        )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rebuilt: List[SessionJournal] = []
        try:
            query_s = timed(query, self.queries)
            replay_s = timed(
                lambda: self.net.monitoring.replay(until=rng.uniform(0.0, end)),
                self.replays,
            )
            digest_s = timed(log.digest)
            save_s = timed(lambda: log.save(path))
            rebuild_s = timed(
                lambda: rebuilt.append(SessionJournal.replay(path))
            )
        finally:
            if os.path.exists(path):
                os.remove(path)
        self.live_journal_digest = self.journal.digest()
        self.replayed_journal_digest = rebuilt[0].digest()
        self.read_timings = {
            "core.events.query_us": query_s / self.queries * 1e6,
            "core.events.replay_ms": replay_s / self.replays * 1e3,
            "core.events.save_ms": save_s * 1e3,
            "core.journal.replay_ms": rebuild_s * 1e3,
            "core.events.read_s": (
                query_s + replay_s + digest_s + save_s + rebuild_s
            ),
        }

    def verify(self) -> None:
        controller = self.net.controller
        summary = self.injector.summary()
        self.attempted = controller.sessions.created
        self.failed = summary["unrecovered_sessions"]
        if self.failed:
            self.fail(f"{self.failed} sessions never recovered")
        if self.attempted == 0:
            self.attempted = 1
            self.fail_everything("no session was created")
        log = controller.log
        blocked = {
            (event.data.get("user_mac"), event.data.get("attack"))
            for event in log.query(kind=EventKind.FLOW_BLOCKED)
        }
        detected = [
            event for event in log.query(kind=EventKind.ATTACK_DETECTED)
            if (event.data.get("user_mac"), event.data.get("attack")) in blocked
        ]
        if not detected:
            self.fail_everything("no attack was detected and blocked")
        if self.live_journal_digest != self.replayed_journal_digest:
            self.fail_everything("journal replay diverged from the live journal")

    def delivered_bytes(self) -> int:
        return self.net.gateway.rx_bytes

    def sim_metrics(self) -> Dict[str, Optional[float]]:
        metrics = super().sim_metrics()
        recovery = self.net.metrics_snapshot().get("recovery.time_to_recover_s")
        metrics["sim.ttr_s_max"] = (
            recovery.max if recovery is not None and recovery.count else None
        )
        return metrics

    def digests(self) -> Dict[str, str]:
        return {
            "event_digest": self.net.controller.log.digest(),
            "journal_digest": self.live_journal_digest,
        }

    def injector_summary(self) -> Optional[dict]:
        return self.injector.summary()


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    if name == "steady_packet":
        return Steady(seed, scale, fluid=False)
    if name == "steady_fluid":
        return Steady(seed, scale, fluid=True)
    if name == "session_burst_1shard":
        return SessionBurst(seed, scale, num_shards=1)
    if name == "session_burst_8shard":
        return SessionBurst(seed, scale, num_shards=8)
    if name == "campus_chaos":
        return CampusChaos(seed, scale)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
