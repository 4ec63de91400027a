"""The fault injector: arms a :class:`FaultPlan` against a live network.

The injector resolves the plan's named targets (elements, switches,
link endpoints) against a built :class:`LiveSecNetwork` (one
controller or a shard fabric), schedules every fault on the simulator
clock, and measures the controllers' recovery from the outside:

* ``faults.injected{kind}`` -- injections performed;
* ``faults.affected_sessions`` -- sessions steered through an element
  at the moment the controller declared it offline;
* ``faults.recovered_sessions`` / ``faults.failed_open_sessions`` /
  ``faults.blocked_sessions`` / ``faults.torn_down_sessions`` --
  failover outcomes for those sessions;
* ``recovery.time_to_detect_s`` -- injection until the controller's
  ELEMENT_OFFLINE event (liveness expiry latency);
* ``recovery.time_to_recover_s`` -- injection until each affected
  session's FLOW_FAILOVER resolution.

Both histograms run on the *simulator* clock, so they measure the
modelled detection/recovery latency, not host wall time.  Affected
sessions are counted synchronously inside the ELEMENT_OFFLINE log
emission -- i.e. after the registry expired the element but before the
controller runs failover -- which is the only instant the "sessions at
risk" set is well defined.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.events import EventKind, NetworkEvent
from repro.faults.plan import (
    AppCrash,
    ChannelChaos,
    ElementCrash,
    ElementHang,
    ElementSlowReport,
    FaultPlan,
    LinkFlap,
    ShardCrash,
    SwitchCompromise,
    SwitchDisconnect,
    SwitchReboot,
)
from repro.openflow.channel import ChannelFaults
from repro.openflow.match import Match


class FaultTargetError(ValueError):
    """A plan names an element/switch/link the network does not have."""


# The four families of scored injections.  Per family: the prefix of
# its ``time_to_detect_s`` / ``time_to_recover_s`` histograms, what is
# injected, the event that detects it and the one that recovers it.
_FAMILIES = {
    "element": (
        "recovery.", "Element crash",
        "the controller's ELEMENT_OFFLINE",
        "each affected session's failover",
    ),
    "switch": (
        "accountability.", "Switch compromise",
        "its PATH_VIOLATION conviction",
        "each session's quarantine failover",
    ),
    "shard": (
        "recovery.shard_", "Shard crash",
        "the coordinator's SHARD_DOWN",
        "its last switch re-homed",
    ),
    "app": (
        "recovery.app_", "App crash",
        "the watchdog's crash-detected record",
        "the watchdog revived it",
    ),
}


class FaultInjector:
    """Schedules a plan's faults and scores the controller's recovery."""

    def __init__(self, net, plan: FaultPlan):
        self.net = net
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.armed = False
        # One record per *open* injection -- (family, target) ->
        # [injected_at, detected_at, kind] -- keyed by element MAC,
        # compromised dpid, shard id or (shard, app name): two shards'
        # apps of one name are two faults.  A restart closes it.
        self._open: Dict[Tuple[str, object], list] = {}
        # Datapaths of a crashed shard still waiting for a new owner.
        self._pending_dpids: Dict[int, set] = {}
        # Raw sim-clock samples per fault kind -- (detect, recover) --
        # for the per-fault TTD/TTR table the chaos CLI renders.
        self._samples: Dict[str, Tuple[List[float], List[float]]] = {}
        registry = net.metrics
        self._injected = {
            kind: registry.counter(
                "faults.injected", "Faults injected by the chaos harness",
                kind=kind,
            )
            for kind in (
                "element-crash", "element-hang", "element-slow-report",
                "element-restart", "switch-disconnect", "switch-reconnect",
                "switch-reboot", "link-flap", "channel-chaos",
                "switch-compromise", "shard-crash", "shard-restart",
                "app-crash",
            )
        }
        self._affected = registry.counter(
            "faults.affected_sessions",
            "Sessions steered through an element when it went offline",
        )
        self._outcomes = {
            outcome: registry.counter(
                "faults." + name,
                f"Affected sessions whose failover ended {outcome!r}",
            )
            for outcome, name in (
                ("recovered", "recovered_sessions"),
                ("fail-open", "failed_open_sessions"),
                ("fail-closed", "blocked_sessions"),
                ("torn-down", "torn_down_sessions"),
            )
        }
        sim_clock = lambda: net.sim.now  # noqa: E731
        # family -> (time-to-detect, time-to-recover) histograms.
        self._latency = {}
        for family, (prefix, what, detected, recovered) in _FAMILIES.items():
            self._latency[family] = tuple(
                registry.histogram(
                    f"{prefix}time_to_{edge}_s", f"{what} until {until}",
                    clock=sim_clock,
                )
                for edge, until in (("detect", detected),
                                    ("recover", recovered))
            )
        # Each log tells the scorer whose it is: its shard's index in
        # ``net.controllers`` (0 on one controller), None the fabric's.
        for shard, controller in enumerate(net.controllers):
            controller.log.subscribe(partial(self._on_event, shard))
        if net.coordinator is not None:
            net.coordinator.log.subscribe(partial(self._on_event, None))

    # ------------------------------------------------------------------
    # Target resolution

    def _element(self, name: str):
        for element in self.net.elements:
            if element.name == name:
                return element
        raise FaultTargetError(f"no element named {name!r}")

    def _switch(self, name: str):
        for switch in self.net.topology.all_openflow_switches():
            if switch.name == name:
                return switch
        raise FaultTargetError(f"no switch named {name!r}")

    def _channel(self, switch_name: str):
        switch = self._switch(switch_name)
        channel = self.net.channels.get(switch.dpid)
        if channel is None:
            raise FaultTargetError(f"switch {switch_name!r} has no channel")
        return channel

    def _channels(self, selector: str) -> List:
        if selector == "*":
            return [self.net.channels[d] for d in sorted(self.net.channels)]
        return [self._channel(selector)]

    def _node(self, name: str):
        for pool in (
            self.net.topology.all_openflow_switches(),
            self.net.topology.legacy,
            self.net.topology.hosts,
            self.net.elements,
        ):
            for node in pool:
                if node.name == name:
                    return node
        raise FaultTargetError(f"no node named {name!r}")

    def _shard_member(self, shard: int):
        if self.net.coordinator is None:
            raise FaultTargetError(
                "shard faults need a sharded deployment (got a"
                " single-controller network)"
            )
        member = self.net.coordinator.member(shard)
        if member is None:
            raise FaultTargetError(f"no shard {shard}")
        return member

    def _app_controller(self, fault: AppCrash):
        """The controller hosting the fault's app (a shard member's
        when ``fault.shard`` names one), with the app name validated
        now so a bad plan fails at arm time."""
        if fault.shard is not None:
            controller = self._shard_member(fault.shard).controller
        else:
            controller = self.net.controller
        try:
            controller.app(fault.app)
        except KeyError:
            raise FaultTargetError(f"no app named {fault.app!r}")
        return controller

    def _link(self, name_a: str, name_b: str):
        node_a = self._node(name_a)
        node_b = self._node(name_b)
        for port in node_a.ports.values():
            link = port.link
            if link is None:
                continue
            if link.other_end(port).node is node_b:
                return link
        raise FaultTargetError(f"no link between {name_a!r} and {name_b!r}")

    # ------------------------------------------------------------------
    # Arming

    def arm(self) -> None:
        """Resolve every target and schedule the plan's faults.

        Targets are resolved *now* (missing ones raise immediately,
        not mid-run); per-fault RNGs are derived from the plan seed in
        list order, so determinism does not depend on firing order.
        """
        if self.armed:
            raise RuntimeError("plan already armed")
        self.armed = True
        sim = self.net.sim
        for fault in self.plan:
            if isinstance(fault, ElementCrash):
                element = self._element(fault.element)
                sim.post_at(fault.at_s, self._crash_element,
                                element, fault.restart_at_s)
            elif isinstance(fault, ElementHang):
                element = self._element(fault.element)
                sim.post_at(fault.at_s, self._hang_element,
                                element, fault.duration_s)
            elif isinstance(fault, ElementSlowReport):
                element = self._element(fault.element)
                restore = (
                    fault.restore_interval_s
                    if fault.restore_interval_s is not None
                    else element.report_interval_s
                )
                sim.post_at(fault.at_s, self._slow_element,
                                element, fault.interval_s)
                if fault.restore_at_s is not None:
                    sim.post_at(fault.restore_at_s, self._slow_element,
                                    element, restore)
            elif isinstance(fault, SwitchDisconnect):
                channel = self._channel(fault.switch)
                sim.post_at(fault.at_s, self._disconnect_switch, channel)
                if fault.reconnect_at_s is not None:
                    sim.post_at(fault.reconnect_at_s,
                                    self._reconnect_switch, channel)
            elif isinstance(fault, SwitchReboot):
                channel = self._channel(fault.switch)
                sim.post_at(fault.at_s, self._reboot_switch,
                                channel, fault.down_s)
            elif isinstance(fault, LinkFlap):
                link = self._link(fault.node_a, fault.node_b)
                sim.post_at(fault.at_s, self._flap_link,
                                link, fault, fault.down_s)
            elif isinstance(fault, ChannelChaos):
                channels = self._channels(fault.switch)
                impairments = [
                    ChannelFaults(
                        rng=random.Random(self.rng.randrange(2 ** 32)),
                        drop_rate=fault.drop_rate,
                        duplicate_rate=fault.duplicate_rate,
                        extra_delay_s=fault.extra_delay_s,
                        directions=fault.directions,
                    )
                    for _ in channels
                ]
                sim.post_at(fault.at_s, self._impair_channels,
                                channels, impairments, fault)
                if fault.until_s is not None:
                    sim.post_at(fault.until_s, self._clear_channels,
                                    channels, impairments)
            elif isinstance(fault, ShardCrash):
                member = self._shard_member(fault.shard)
                sim.post_at(fault.at_s, self._crash_shard,
                                member, fault.restart_at_s)
            elif isinstance(fault, AppCrash):
                controller = self._app_controller(fault)
                # The watchdog is opt-in (an always-on scan would
                # perturb schedules that never crash apps); a plan that
                # crashes apps arms it so recovery can be scored.
                controller.start_app_watchdog()
                sim.post_at(fault.at_s, self._crash_app,
                                controller, fault)
            elif isinstance(fault, SwitchCompromise):
                switch = self._switch(fault.switch)
                sim.post_at(fault.at_s, self._compromise_switch,
                                switch, fault)
            else:  # pragma: no cover - plan builders prevent this
                raise TypeError(f"unknown fault {fault!r}")

    # ------------------------------------------------------------------
    # Fault actions

    def _mark(self, kind: str, log=None, **data) -> None:
        # Faults change forwarding behavior out from under any
        # fast-forwarded flows; drop back to packet fidelity first.
        fluid = self.net.sim.fluid
        if fluid is not None:
            fluid.materialize_all("fault")
        self._injected[kind].inc()
        if log is None:
            log = self.net.controller.log
        log.emit(
            self.net.sim.now, EventKind.FAULT_INJECTED, fault=kind, **data
        )

    def _crash_element(self, element, restart_at_s: Optional[float]) -> None:
        element.fail()
        self._opened("element", element.mac, "element-crash")
        self._mark("element-crash", element=element.name)
        if restart_at_s is not None:
            self.net.sim.post_at(restart_at_s,
                                     self._restart_element, element)

    def _restart_element(self, element) -> None:
        element.restart()
        self._open.pop(("element", element.mac), None)
        self._mark("element-restart", element=element.name)

    def _hang_element(self, element, duration_s: float) -> None:
        element.hang(duration_s)
        self._opened("element", element.mac, "element-hang")
        self._mark("element-hang", element=element.name,
                   duration_s=duration_s)

    def _slow_element(self, element, interval_s: float) -> None:
        element.set_report_interval(interval_s)
        # The restore call lands here too, and a crash or hang still
        # open on the element keeps its clock: open only a fresh one.
        if ("element", element.mac) not in self._open:
            self._opened("element", element.mac, "element-slow-report")
        self._mark("element-slow-report", element=element.name,
                   interval_s=interval_s)

    def _disconnect_switch(self, channel) -> None:
        channel.disconnect()
        self._mark("switch-disconnect", dpid=channel.switch.dpid)

    def _reconnect_switch(self, channel) -> None:
        channel.connect()
        self._mark("switch-reconnect", dpid=channel.switch.dpid)

    def _reboot_switch(self, channel, down_s: float) -> None:
        """A power cycle: the table is gone and nobody is told -- no
        FlowRemoved raised, none parked for the reconnect."""
        switch = channel.switch
        channel.disconnect()
        # Marked (which settles any fluid flows) before the wipe.
        self._mark("switch-reboot", dpid=switch.dpid, down_s=down_s)
        switch.table.delete(Match())
        switch._pending_replies.clear()
        self.net.sim.post(down_s, self._reconnect_switch, channel)

    def _flap_link(self, link, fault, down_s: float) -> None:
        link.set_up(False)
        self._mark("link-flap", node_a=fault.node_a, node_b=fault.node_b,
                   down_s=down_s)
        self.net.sim.post(down_s, link.set_up, True)

    def _impair_channels(self, channels, impairments, fault) -> None:
        for channel, impairment in zip(channels, impairments):
            channel.inject_faults(impairment)
        self._mark("channel-chaos", switch=fault.switch,
                   drop_rate=fault.drop_rate,
                   duplicate_rate=fault.duplicate_rate)

    def _clear_channels(self, channels, impairments) -> None:
        for channel, impairment in zip(channels, impairments):
            # Clear only if our impairment is still the active one.
            if channel.faults is impairment:
                channel.inject_faults(None)

    def _crash_shard(self, member, restart_at_s: Optional[float]) -> None:
        member.fail()
        shard = member.shard_id
        self._opened("shard", shard, "shard-crash")
        self._pending_dpids[shard] = set(
            self.net.coordinator.shard_map.owned_by(shard)
        )
        self._mark("shard-crash", log=self.net.coordinator.log, shard=shard)
        if restart_at_s is not None:
            self.net.sim.post_at(restart_at_s,
                                     self._restart_shard, member)

    def _restart_shard(self, member) -> None:
        member.restart()
        shard = member.shard_id
        if self._pending_dpids.pop(shard, None):  # back before re-homing
            self._recovered("shard", shard, self.net.sim.now)
        self._open.pop(("shard", shard), None)
        self._mark("shard-restart", log=self.net.coordinator.log, shard=shard)

    def _crash_app(self, controller, fault: AppCrash) -> None:
        controller.crash_app(fault.app)
        shard = self.net.controllers.index(controller)
        self._opened("app", (shard, fault.app), "app-crash")
        data = {"app": fault.app}
        if fault.shard is not None:
            data["shard"] = fault.shard
        self._mark("app-crash", log=controller.log, **data)

    def _compromise_switch(self, switch, fault) -> None:
        switch.compromise(fault.variant, port=fault.port)
        self._opened("switch", switch.dpid, "switch-compromise")
        self._mark("switch-compromise", dpid=switch.dpid,
                   variant=fault.variant)

    # ------------------------------------------------------------------
    # Recovery scoring (event-log subscriber)

    def _opened(self, family: str, target, kind: str) -> None:
        self._open[(family, target)] = [self.net.sim.now, None, kind]

    def _detected(self, family: str, target, at: float,
                  once: bool = True) -> bool:
        """Score a detection against the target's open injection; False
        when there is none (or, with ``once``, it was detected before)."""
        record = self._open.get((family, target))
        if record is None or (once and record[1] is not None):
            return False
        record[1] = at
        self._observe(family, 0, record, at)
        return True

    def _recovered(self, family: str, target, at: float) -> None:
        record = self._open.get((family, target))
        if record is not None:
            self._observe(family, 1, record, at)

    def _observe(self, family: str, edge: int, record: list,
                 at: float) -> None:
        elapsed = at - record[0]
        self._latency[family][edge].observe(elapsed)
        self._samples.setdefault(record[2], ([], []))[edge].append(elapsed)

    def _on_event(self, shard: Optional[int], event: NetworkEvent) -> None:
        if event.kind == EventKind.ELEMENT_OFFLINE:
            mac = event.data.get("mac")
            controllers = self.net.controllers
            # One controller scores *every* ELEMENT_OFFLINE of an open
            # injection (a slow reporter expires again and again); on a
            # fabric borrower shards re-log the death a sync round
            # later (remote_element_down), so only the origin's first
            # detection is the TTD sample.
            if not self._detected("element", mac, event.time,
                                  once=len(controllers) > 1):
                return
            at_risk = sum(
                1
                for controller in controllers
                for session in controller.sessions.sessions_via_element(mac)
                if not session.blocked
            )
            self._affected.inc(at_risk)
        elif (event.kind == EventKind.FLOW_FAILOVER
              and "dead_element" in event.data):  # not a commit's
            dead = event.data["dead_element"]
            counter = self._outcomes.get(event.data.get("outcome"))
            if counter is not None:
                counter.inc()
            self._recovered("element", dead, event.time)
            # A quarantine-attributed failover recovers a session off a
            # compromised switch: score it against that injection.
            cause = event.data.get("cause", "")
            if isinstance(cause, str) and cause.startswith("quarantine"):
                for controller in self.net.controllers:
                    record = controller.nib.host_by_mac(dead)
                    if record is not None:
                        self._recovered("switch", record.dpid, event.time)
                        break
        elif event.kind == EventKind.PATH_VIOLATION:
            self._detected("switch", event.data.get("dpid"), event.time)
        elif event.kind == EventKind.APP_LIFECYCLE:
            app = (shard, event.data.get("app"))
            action = event.data.get("action")
            if action == "crash-detected":
                self._detected("app", app, event.time)
            elif action == "restarted":
                # Only a crash the watchdog detected: a shard restart
                # revives every app and closes no fault.
                record = self._open.get(("app", app))
                if record is not None and record[1] is not None:
                    self._recovered("app", app, event.time)
                    del self._open[("app", app)]
        elif event.kind == EventKind.SHARD_DOWN:
            self._detected("shard", event.data.get("shard"), event.time)
        elif event.kind == EventKind.SHARD_REHOME:
            shard = event.data.get("shard")
            pending = self._pending_dpids.get(shard)
            if not pending:
                return
            pending.discard(event.data.get("dpid"))
            if not pending:
                # Every datapath of the dead shard has a new owner: the
                # fabric has recovered from this injection.
                self._recovered("shard", shard, event.time)

    # ------------------------------------------------------------------
    # Results

    @staticmethod
    def _stats(samples: List[float]) -> dict:
        return {
            "count": len(samples),
            "min": min(samples),
            "mean": sum(samples) / len(samples),
            "max": max(samples),
        }

    def per_fault_latency(self) -> dict:
        """Per-fault-kind detection/recovery latency samples (the
        TTD/TTR table the chaos CLI renders)."""
        table = {}
        for kind in sorted(self._samples):
            row = {}
            for name, samples in zip(
                ("time_to_detect_s", "time_to_recover_s"), self._samples[kind]
            ):
                if samples:
                    row[name] = self._stats(samples)
            table[kind] = row
        return table

    def summary(self) -> dict:
        """Injection and recovery totals (the chaos verdict)."""
        affected = int(self._affected.value)
        resolved = sum(int(c.value) for c in self._outcomes.values())
        return {
            "seed": self.plan.seed,
            "faults_planned": len(self.plan),
            "injected": {
                kind: int(counter.value)
                for kind, counter in self._injected.items()
                if counter.value
            },
            "affected_sessions": affected,
            "recovered_sessions": int(self._outcomes["recovered"].value),
            "failed_open_sessions": int(self._outcomes["fail-open"].value),
            "blocked_sessions": int(self._outcomes["fail-closed"].value),
            "torn_down_sessions": int(self._outcomes["torn-down"].value),
            "unrecovered_sessions": max(0, affected - resolved),
            "per_fault": self.per_fault_latency(),
        }
