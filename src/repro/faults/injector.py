"""The fault injector: arms a :class:`FaultPlan` against a live network.

The injector resolves the plan's named targets (elements, switches,
link endpoints) against a built :class:`LiveSecNetwork`, schedules
every fault on the simulator clock, and measures the controller's
recovery from the outside:

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
from typing import Dict, List, Optional

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
)
from repro.openflow.channel import ChannelFaults


class FaultTargetError(ValueError):
    """A plan names an element/switch/link the network does not have."""


class FaultInjector:
    """Schedules a plan's faults and scores the controller's recovery."""

    def __init__(self, net, plan: FaultPlan):
        self.net = net
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.armed = False
        # Crash bookkeeping for detection/recovery latency, keyed by
        # element MAC: when the fault went in, when it was detected.
        self._injected_at: Dict[str, float] = {}
        self._detected_at: Dict[str, float] = {}
        self._fault_kind: Dict[str, str] = {}  # element MAC -> fault kind
        # Compromised-switch bookkeeping, keyed by dpid: conviction is
        # a PATH_VIOLATION, recovery a quarantine-attributed failover.
        self._switch_injected_at: Dict[int, float] = {}
        self._switch_detected_at: Dict[int, float] = {}
        # Shard-crash bookkeeping, keyed by shard id: detection is the
        # coordinator's SHARD_DOWN, recovery the last SHARD_REHOME of
        # the dead shard's datapaths.
        self._shard_injected_at: Dict[int, float] = {}
        self._shard_detected_at: Dict[int, float] = {}
        self._shard_pending_dpids: Dict[int, set] = {}
        # App-crash bookkeeping, keyed by app name: detection is the
        # watchdog's ``crash-detected`` lifecycle record, recovery its
        # ``restarted`` one.
        self._app_injected_at: Dict[str, float] = {}
        self._app_detected_at: Dict[str, float] = {}
        # Raw sim-clock samples per fault kind, for the per-fault
        # TTD/TTR table the chaos CLI renders.
        self._ttd_samples: Dict[str, List[float]] = {}
        self._ttr_samples: Dict[str, List[float]] = {}
        # A sharded deployment exposes every shard's controller plus a
        # fabric-level registry; a classic network just its one
        # controller.  Recovery scoring subscribes to all of them.
        self._controllers = list(getattr(net, "controllers", None)
                                 or [net.controller])
        self._coordinator = getattr(net, "coordinator", None)
        registry = (net.metrics if self._coordinator is not None
                    else net.controller.metrics)
        self._injected = {
            kind: registry.counter(
                "faults.injected", "Faults injected by the chaos harness",
                kind=kind,
            )
            for kind in (
                "element-crash", "element-hang", "element-slow-report",
                "element-restart", "switch-disconnect", "switch-reconnect",
                "link-flap", "channel-chaos", "switch-compromise",
                "switch-restore", "shard-crash", "shard-restart",
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
        self._time_to_detect = registry.histogram(
            "recovery.time_to_detect_s",
            "Element crash until the controller's ELEMENT_OFFLINE",
            clock=sim_clock,
        )
        self._time_to_recover = registry.histogram(
            "recovery.time_to_recover_s",
            "Element crash until each affected session's failover",
            clock=sim_clock,
        )
        self._acct_time_to_detect = registry.histogram(
            "accountability.time_to_detect_s",
            "Switch compromise until its PATH_VIOLATION conviction",
            clock=sim_clock,
        )
        self._acct_time_to_recover = registry.histogram(
            "accountability.time_to_recover_s",
            "Switch compromise until each session's quarantine failover",
            clock=sim_clock,
        )
        self._shard_time_to_detect = registry.histogram(
            "recovery.shard_time_to_detect_s",
            "Shard crash until the coordinator's SHARD_DOWN",
            clock=sim_clock,
        )
        self._shard_time_to_recover = registry.histogram(
            "recovery.shard_time_to_recover_s",
            "Shard crash until its last switch re-homed",
            clock=sim_clock,
        )
        self._app_time_to_detect = registry.histogram(
            "recovery.app_time_to_detect_s",
            "App crash until the watchdog's crash-detected record",
            clock=sim_clock,
        )
        self._app_time_to_recover = registry.histogram(
            "recovery.app_time_to_recover_s",
            "App crash until the watchdog revived it",
            clock=sim_clock,
        )
        for controller in self._controllers:
            controller.log.subscribe(self._on_event)
        if self._coordinator is not None:
            self._coordinator.log.subscribe(self._on_event)

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
        if self._coordinator is None:
            raise FaultTargetError(
                "shard faults need a sharded deployment (got a"
                " single-controller network)"
            )
        member = self._coordinator.member(shard)
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
                if fault.restore_at_s is not None:
                    sim.post_at(fault.restore_at_s,
                                    self._restore_switch, switch)
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
        self._injected_at[element.mac] = self.net.sim.now
        self._fault_kind[element.mac] = "element-crash"
        self._mark("element-crash", element=element.name)
        if restart_at_s is not None:
            self.net.sim.post_at(restart_at_s,
                                     self._restart_element, element)

    def _restart_element(self, element) -> None:
        element.restart()
        self._injected_at.pop(element.mac, None)
        self._detected_at.pop(element.mac, None)
        self._mark("element-restart", element=element.name)

    def _hang_element(self, element, duration_s: float) -> None:
        element.hang(duration_s)
        self._injected_at[element.mac] = self.net.sim.now
        self._fault_kind[element.mac] = "element-hang"
        self._mark("element-hang", element=element.name,
                   duration_s=duration_s)

    def _slow_element(self, element, interval_s: float) -> None:
        element.set_report_interval(interval_s)
        self._injected_at.setdefault(element.mac, self.net.sim.now)
        self._fault_kind.setdefault(element.mac, "element-slow-report")
        self._mark("element-slow-report", element=element.name,
                   interval_s=interval_s)

    def _disconnect_switch(self, channel) -> None:
        channel.disconnect()
        self._mark("switch-disconnect", dpid=channel.switch.dpid)

    def _reconnect_switch(self, channel) -> None:
        channel.connect()
        self._mark("switch-reconnect", dpid=channel.switch.dpid)

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
        self._shard_injected_at[shard] = self.net.sim.now
        self._shard_pending_dpids[shard] = set(
            self._coordinator.shard_map.owned_by(shard)
        )
        self._mark("shard-crash", log=self._coordinator.log, shard=shard)
        if restart_at_s is not None:
            self.net.sim.post_at(restart_at_s,
                                     self._restart_shard, member)

    def _restart_shard(self, member) -> None:
        member.restart()
        shard = member.shard_id
        self._shard_injected_at.pop(shard, None)
        self._shard_detected_at.pop(shard, None)
        self._shard_pending_dpids.pop(shard, None)
        self._mark("shard-restart", log=self._coordinator.log, shard=shard)

    def _crash_app(self, controller, fault: AppCrash) -> None:
        controller.crash_app(fault.app)
        self._app_injected_at[fault.app] = self.net.sim.now
        data = {"app": fault.app}
        if fault.shard is not None:
            data["shard"] = fault.shard
        self._mark("app-crash", log=controller.log, **data)

    def _compromise_switch(self, switch, fault) -> None:
        switch.compromise(fault.variant, port=fault.port)
        self._switch_injected_at[switch.dpid] = self.net.sim.now
        self._mark("switch-compromise", dpid=switch.dpid,
                   variant=fault.variant)

    def _restore_switch(self, switch) -> None:
        switch.restore_integrity()
        self._mark("switch-restore", dpid=switch.dpid)

    # ------------------------------------------------------------------
    # Recovery scoring (event-log subscriber)

    def _sample(self, table: Dict[str, List[float]],
                kind: str, value: float) -> None:
        table.setdefault(kind, []).append(value)

    def _on_event(self, event: NetworkEvent) -> None:
        if event.kind == EventKind.ELEMENT_OFFLINE:
            mac = event.data.get("mac")
            injected = self._injected_at.get(mac)
            if injected is None:
                return
            if len(self._controllers) > 1 and mac in self._detected_at:
                # Sharded: borrower shards re-log the death a sync
                # round later (remote_element_down); only the origin's
                # first detection is the TTD sample.
                return
            self._detected_at[mac] = event.time
            self._time_to_detect.observe(event.time - injected)
            self._sample(
                self._ttd_samples,
                self._fault_kind.get(mac, "element-crash"),
                event.time - injected,
            )
            at_risk = sum(
                1
                for controller in self._controllers
                for session in controller.sessions.sessions_via_element(mac)
                if not session.blocked
            )
            self._affected.inc(at_risk)
        elif event.kind == EventKind.FLOW_FAILOVER:
            dead = event.data.get("dead_element")
            outcome = event.data.get("outcome")
            counter = self._outcomes.get(outcome)
            if counter is not None:
                counter.inc()
            injected = self._injected_at.get(dead)
            if injected is not None:
                self._time_to_recover.observe(event.time - injected)
                self._sample(
                    self._ttr_samples,
                    self._fault_kind.get(dead, "element-crash"),
                    event.time - injected,
                )
            # A quarantine-attributed failover recovers a session off a
            # compromised switch: score it against that injection.
            cause = event.data.get("cause", "")
            if isinstance(cause, str) and cause.startswith("quarantine"):
                record = None
                for controller in self._controllers:
                    record = controller.nib.host_by_mac(dead)
                    if record is not None:
                        break
                since = (
                    self._switch_injected_at.get(record.dpid)
                    if record is not None else None
                )
                if since is not None:
                    self._acct_time_to_recover.observe(event.time - since)
                    self._sample(self._ttr_samples, "switch-compromise",
                                 event.time - since)
        elif event.kind == EventKind.PATH_VIOLATION:
            dpid = event.data.get("dpid")
            injected = self._switch_injected_at.get(dpid)
            if injected is None or dpid in self._switch_detected_at:
                return
            self._switch_detected_at[dpid] = event.time
            self._acct_time_to_detect.observe(event.time - injected)
            self._sample(self._ttd_samples, "switch-compromise",
                         event.time - injected)
        elif event.kind == EventKind.APP_LIFECYCLE:
            app = event.data.get("app")
            injected = self._app_injected_at.get(app)
            if injected is None:
                return
            action = event.data.get("action")
            if (action == "crash-detected"
                    and app not in self._app_detected_at):
                self._app_detected_at[app] = event.time
                self._app_time_to_detect.observe(event.time - injected)
                self._sample(self._ttd_samples, "app-crash",
                             event.time - injected)
            elif action == "restarted":
                self._app_time_to_recover.observe(event.time - injected)
                self._sample(self._ttr_samples, "app-crash",
                             event.time - injected)
                self._app_injected_at.pop(app, None)
                self._app_detected_at.pop(app, None)
        elif event.kind == EventKind.SHARD_DOWN:
            shard = event.data.get("shard")
            injected = self._shard_injected_at.get(shard)
            if injected is None or shard in self._shard_detected_at:
                return
            self._shard_detected_at[shard] = event.time
            self._shard_time_to_detect.observe(event.time - injected)
            self._sample(self._ttd_samples, "shard-crash",
                         event.time - injected)
        elif event.kind == EventKind.SHARD_REHOME:
            shard = event.data.get("shard")
            pending = self._shard_pending_dpids.get(shard)
            if not pending:
                return
            pending.discard(event.data.get("dpid"))
            if pending:
                return
            # Every datapath of the dead shard has a new owner: the
            # fabric has recovered from this injection.
            injected = self._shard_injected_at.get(shard)
            if injected is not None:
                self._shard_time_to_recover.observe(event.time - injected)
                self._sample(self._ttr_samples, "shard-crash",
                             event.time - injected)

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
        kinds = sorted(set(self._ttd_samples) | set(self._ttr_samples))
        table = {}
        for kind in kinds:
            row = {}
            if self._ttd_samples.get(kind):
                row["time_to_detect_s"] = self._stats(
                    self._ttd_samples[kind]
                )
            if self._ttr_samples.get(kind):
                row["time_to_recover_s"] = self._stats(
                    self._ttr_samples[kind]
                )
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
