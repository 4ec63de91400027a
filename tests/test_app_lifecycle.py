"""Tests for the runtime app lifecycle (the operations control plane).

Covers transactional registration (a failed ``add_app`` leaves zero
residual subscriptions or timers), stop/start/restart/reload with the
config-hash no-op skip, the crash watchdog with TTD/TTR scoring via
the ``app_crash`` fault, steering's drain of accountability-decorated
sessions, per-shard lifecycle visibility, and the determinism
contract: a mid-scenario stop -> reload -> start of the observation-only
monitor app does not perturb the data path.
"""

import pytest

from repro.core.apps.base import (
    APP_CRASHED,
    APP_RUNNING,
    APP_STOPPED,
    App,
    ServiceStatus,
    config_hash,
)
from repro.core.bus import AppLifecycleChanged, DataPacketIn
from repro.core.deployment import build_livesec_network
from repro.core.events import EventKind
from repro.faults import FaultInjector, FaultPlan, FaultTargetError
from repro.faults.scenarios import GATEWAY_IP, chaos_policy_table
from repro.workloads import CbrUdpFlow


def build_net(num_elements=2, accountability=False, stats_interval_s=1.0):
    return build_livesec_network(
        topology="linear",
        policies=chaos_policy_table("open"),
        elements=[("ids", num_elements)],
        num_as=2,
        hosts_per_as=1,
        element_timeout_s=1.5,
        dispatcher="polling",
        accountability=accountability,
        stats_interval_s=stats_interval_s,
    )


def start_traffic(net, duration_s):
    hosts = [h for h in net.topology.hosts if h is not net.topology.gateway]
    for host in hosts:
        CbrUdpFlow(net.sim, host, GATEWAY_IP,
                   rate_bps=2e6, duration_s=duration_s).start()


class TickApp(App):
    """A tiny app with one subscription and one periodic timer."""

    name = "tick"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.ticks = 0
        self.packets = 0
        self.listen(DataPacketIn, self.on_packet)

    def on_packet(self, event):
        self.packets += 1

    def start(self):
        self.every(0.25, self._tick)

    def _tick(self):
        self.ticks += 1


class DuplicateSteering(App):
    """Constructor wires subscriptions under an already-taken name."""

    name = "steering"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.listen(DataPacketIn, self.on_packet)

    def on_packet(self, event):
        raise AssertionError("a rolled-back app must never dispatch")


class ExplodingCtor(App):
    name = "exploding-ctor"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.listen(DataPacketIn, self.on_packet)
        raise RuntimeError("constructor dies after wiring")

    def on_packet(self, event):
        raise AssertionError("a purged app must never dispatch")


class ExplodingStart(App):
    name = "exploding-start"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.ran = 0
        self.listen(DataPacketIn, self.on_packet)

    def on_packet(self, event):
        raise AssertionError("a rolled-back app must never dispatch")

    def start(self):
        self.every(0.25, self._tick)
        raise RuntimeError("start dies after registering a timer")

    def _tick(self):
        self.ran += 1


class TestTransactionalAddApp:
    def test_duplicate_name_leaves_bus_unchanged(self):
        net = build_net()
        net.start()
        controller = net.controller
        before = len(controller.bus.subscriptions())
        original = controller.app("steering")
        with pytest.raises(ValueError, match="already registered"):
            controller.add_app(DuplicateSteering)
        # The regression: the constructed duplicate's subscriptions
        # must not leak onto the bus, and the original keeps its slot.
        assert len(controller.bus.subscriptions()) == before
        assert controller.app("steering") is original
        net.run(1.0)  # the duplicate's handler would raise if wired

    def test_constructor_failure_purges_partial_wiring(self):
        net = build_net()
        net.start()
        controller = net.controller
        before = len(controller.bus.subscriptions())
        with pytest.raises(RuntimeError, match="constructor dies"):
            controller.add_app(ExplodingCtor)
        assert len(controller.bus.subscriptions()) == before
        assert "exploding-ctor" not in controller._apps
        net.run(0.5)

    def test_start_failure_rolls_back_subscriptions_and_timers(self):
        net = build_net()
        net.start()
        controller = net.controller
        before = len(controller.bus.subscriptions())
        with pytest.raises(RuntimeError, match="start dies"):
            controller.add_app(ExplodingStart)
        assert len(controller.bus.subscriptions()) == before
        assert "exploding-start" not in controller._apps
        # The timer registered before start() raised was cancelled:
        # running the clock fires nothing (the tick would mutate the
        # instance, which add_app never returned -- run proves no
        # periodic callback survived in the queue by not raising via
        # the subscription either).
        net.run(1.0)

    def test_successful_add_app_emits_started(self):
        net = build_net()
        net.start()
        app = net.controller.add_app(TickApp)
        assert app.state == APP_RUNNING
        records = net.controller.log.query(kind=EventKind.APP_LIFECYCLE)
        assert [r.data["action"] for r in records] == ["started"]
        assert records[-1].data["app"] == "tick"


class TestStopAndTimers:
    def test_stop_removes_subscriptions_and_cancels_timers(self):
        net = build_net()
        net.start()
        controller = net.controller
        app = controller.add_app(TickApp)
        handle = app._timers[0]
        net.run(1.0)
        assert app.ticks > 0
        ticks_at_stop = app.ticks
        controller.stop_app("tick")
        assert app.state == APP_STOPPED
        assert handle.cancelled
        assert not any(
            sub.app == "tick" for sub in controller.bus.subscriptions()
        )
        start_traffic(net, 1.0)
        net.run(2.0)
        # A stopped app never fires a late periodic callback and never
        # sees another event.
        assert app.ticks == ticks_at_stop
        assert app.packets == 0

    def test_stop_cancels_accountability_absence_audit(self):
        # Regression for the satellite: the accountability app's 0.5 s
        # absence-audit timer must die with the app.
        net = build_net(accountability=True)
        net.start()
        controller = net.controller
        acct = controller.app("accountability")
        assert len(acct._timers) == 1
        handle = acct._timers[0]
        assert not handle.cancelled
        controller.stop_app("accountability")
        assert handle.cancelled
        assert acct._timers == []
        assert not any(
            sub.app == "accountability"
            for sub in controller.bus.subscriptions()
        )
        net.run(2.0)  # no late audit fires

    def test_stop_is_idempotent_and_start_revives(self):
        net = build_net()
        net.start()
        controller = net.controller
        controller.stop_app("monitor")
        controller.stop_app("monitor")  # no-op
        assert controller.app("monitor").state == APP_STOPPED
        revived = controller.start_app("monitor")
        assert revived.state == APP_RUNNING
        assert controller.app("monitor") is revived
        assert any(
            sub.app == "monitor" for sub in controller.bus.subscriptions()
        )


class TestReload:
    def test_noop_reload_skipped_by_config_hash(self):
        net = build_net()
        net.start()
        controller = net.controller
        app = controller.app("monitor")
        records_before = len(
            controller.log.query(kind=EventKind.APP_LIFECYCLE)
        )
        same = controller.reload_app("monitor", dict(app.config))
        assert same is app  # not reconstructed
        assert len(
            controller.log.query(kind=EventKind.APP_LIFECYCLE)
        ) == records_before

    def test_changed_config_reload_reconstructs(self):
        net = build_net(stats_interval_s=1.0)
        net.start()
        controller = net.controller
        old = controller.app("monitor")
        old_handle = old._timers[0]
        seen = []
        controller.bus.subscribe(
            AppLifecycleChanged, seen.append, app="test"
        )
        new = controller.reload_app("monitor", {"stats_interval_s": 0.25})
        assert new is not old
        assert new.state == APP_RUNNING
        assert new.config == {"stats_interval_s": 0.25}
        assert old_handle.cancelled
        assert [e.action for e in seen] == ["reloaded"]
        assert isinstance(seen[0].status, ServiceStatus)
        records = controller.log.query(kind=EventKind.APP_LIFECYCLE)
        assert records[-1].data["action"] == "reloaded"

    def test_bad_config_reload_rolls_back_to_old_config(self):
        net = build_net()
        net.start()
        controller = net.controller
        subs_before = len(controller.bus.subscriptions())
        old_config = dict(controller.app("monitor").config)
        with pytest.raises(TypeError):
            controller.reload_app("monitor", {"bogus_knob": 1})
        app = controller.app("monitor")
        assert app.state == APP_RUNNING
        assert app.config == old_config
        assert len(controller.bus.subscriptions()) == subs_before

    def test_restart_keeps_config(self):
        net = build_net(stats_interval_s=0.5)
        net.start()
        controller = net.controller
        old = controller.app("monitor")
        new = controller.restart_app("monitor")
        assert new is not old
        assert new.config == old.config
        assert new.state == APP_RUNNING
        assert old.state == APP_STOPPED

    def test_remove_app_drops_registry_slot(self):
        net = build_net()
        net.start()
        controller = net.controller
        controller.add_app(TickApp)
        controller.remove_app("tick")
        assert "tick" not in controller._apps
        records = controller.log.query(kind=EventKind.APP_LIFECYCLE)
        assert records[-1].data["action"] == "removed"
        assert records[-1].data["state"] == "removed"


class TestWatchdog:
    def test_crash_is_silent_until_watchdog_detects(self):
        net = build_net()
        net.start()
        controller = net.controller
        controller.crash_app("monitor")
        assert controller.app("monitor").state == APP_CRASHED
        assert controller.log.query(kind=EventKind.APP_LIFECYCLE) == []
        controller.start_app_watchdog()
        net.run(0.6)
        records = controller.log.query(kind=EventKind.APP_LIFECYCLE)
        assert [r.data["action"] for r in records] == [
            "crash-detected", "restarted",
        ]
        assert controller.app("monitor").state == APP_RUNNING

    def test_watchdog_is_idempotent(self):
        net = build_net()
        net.start()
        first = net.controller.start_app_watchdog()
        assert net.controller.start_app_watchdog() is first


class TestAppCrashFault:
    def test_app_crash_on_steering_scores_ttd_and_ttr(self):
        # 2.1 s sits between watchdog scan ticks (0.5 s grid), so the
        # detection latency is a real, positive fraction of a scan.
        plan = FaultPlan(seed=3).app_crash(2.1, "steering")
        net = build_net()
        injector = FaultInjector(net, plan)
        injector.arm()
        net.start()
        start_traffic(net, 4.0)
        net.run(5.0)
        summary = injector.summary()
        assert summary["injected"]["app-crash"] == 1
        latency = injector.per_fault_latency()["app-crash"]
        assert latency["time_to_detect_s"]["count"] == 1
        assert latency["time_to_recover_s"]["count"] == 1
        # The watchdog scans every 0.5 s: detection within one period,
        # and strictly after the (off-grid) crash instant.
        assert 0.0 < latency["time_to_detect_s"]["max"] <= 0.5 + 1e-9
        assert net.controller.app("steering").state == APP_RUNNING
        crashes = [
            e for e in net.controller.log.query(kind=EventKind.FAULT_INJECTED)
            if e.data.get("fault") == "app-crash"
        ]
        assert len(crashes) == 1
        # The revived steering still forms sessions: let the first
        # wave idle out, then send fresh traffic.
        net.run(5.0)
        start_traffic(net, 1.0)
        net.run(2.0)
        opens_after = net.controller.log.query(
            kind=EventKind.FLOW_START, since=crashes[0].time + 1.0,
        )
        assert opens_after  # steering came back and kept steering

    def test_unknown_app_rejected_at_arm_time(self):
        plan = FaultPlan().app_crash(1.0, "no-such-app")
        net = build_net()
        injector = FaultInjector(net, plan)
        with pytest.raises(FaultTargetError, match="no app named"):
            injector.arm()

    def test_plan_builder_validates(self):
        with pytest.raises(ValueError, match="non-empty"):
            FaultPlan().app_crash(1.0, "")
        with pytest.raises(ValueError, match="shard id"):
            FaultPlan().app_crash(1.0, "monitor", shard=-1)


class TestSteeringDrain:
    def test_stopping_accountability_drains_descriptors(self):
        net = build_net(accountability=True)
        net.start()
        start_traffic(net, 6.0)
        net.run(2.0)
        controller = net.controller
        decorated = [
            s for s in controller.sessions if s.path_descriptor is not None
        ]
        assert decorated  # accountability armed the live sessions
        sessions_before = len(controller.sessions)
        controller.stop_app("accountability")
        # Every session lost its proof obligations but kept flowing.
        assert all(
            s.path_descriptor is None for s in controller.sessions
        )
        assert len(controller.sessions) == sessions_before
        assert not controller.accountability_active()
        net.run(1.0)
        assert len(controller.sessions) >= sessions_before

    def test_sessions_after_restart_are_decorated_again(self):
        net = build_net(accountability=True)
        net.start()
        start_traffic(net, 3.0)
        net.run(1.0)
        controller = net.controller
        controller.stop_app("accountability")
        assert not controller.accountability_active()
        controller.start_app("accountability")
        assert controller.accountability_active()
        # Drained sessions stay undecorated (the fresh app never armed
        # them); the gate is simply open again for new sessions.
        assert all(
            s.path_descriptor is None for s in controller.sessions
        )


class TestShardLifecycle:
    def test_coordinator_status_shows_per_shard_apps(self):
        net = build_livesec_network(
            num_shards=2, topology="linear", num_as=3, hosts_per_as=1,
        )
        net.start()
        member = net.coordinator.member(0)
        member.controller.stop_app("monitor")
        status = net.coordinator.status()
        apps0 = status["shards"][0]["apps"]
        apps1 = status["shards"][1]["apps"]
        assert apps0["monitor"] == APP_STOPPED
        assert apps1["monitor"] == APP_RUNNING
        assert apps0["steering"] == APP_RUNNING


class TestTypedContracts:
    def test_service_status_shape(self):
        net = build_net(stats_interval_s=0.5)
        net.start()
        statuses = net.controller.app_status()
        monitor = statuses["monitor"]
        assert isinstance(monitor, ServiceStatus)
        assert monitor.state == APP_RUNNING
        assert monitor.timers == 1
        assert monitor.subscriptions > 0
        assert monitor.config == {"stats_interval_s": 0.5}
        assert monitor.config_hash == config_hash(monitor.config)
        as_dict = monitor.to_dict()
        assert as_dict["name"] == "monitor"
        assert as_dict["state"] == APP_RUNNING

    def test_config_hash_is_canonical(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_session_snapshot(self):
        net = build_net()
        net.start()
        start_traffic(net, 2.0)
        net.run(1.0)
        snapshots = net.controller.sessions.snapshot()
        assert snapshots
        ids = [snap.session_id for snap in snapshots]
        assert ids == sorted(ids)
        first = snapshots[0]
        with pytest.raises(Exception):
            first.session_id = 99  # frozen
        as_dict = first.to_dict()
        assert as_dict["session_id"] == first.session_id
        assert isinstance(as_dict["element_macs"], list)


class TestDigestStability:
    def _run_log(self, cycle):
        net = build_net(stats_interval_s=1.0)
        net.start()
        start_traffic(net, 4.0)
        net.run(1.5)
        if cycle:
            controller = net.controller
            controller.stop_app("monitor")
            net.run(0.5)
            controller.reload_app("monitor", {"stats_interval_s": 0.5})
            net.run(0.5)
            controller.restart_app("monitor")
            net.run(2.5)
        else:
            net.run(3.5)
        return net.controller.log

    def test_same_seed_cycled_runs_digest_equal(self):
        assert self._run_log(cycle=True).digest() == \
            self._run_log(cycle=True).digest()

    def test_monitor_cycle_does_not_perturb_data_path(self):
        # The monitor is observation-only: stop -> reload -> start must
        # leave every non-observation event identical to an untouched
        # run.  Excluded: its own load samples (cadence changed with
        # the reload) and the lifecycle records of the cycle itself.
        exclude = {EventKind.LINK_LOAD, EventKind.ELEMENT_LOAD,
                   EventKind.APP_LIFECYCLE}
        cycled = self._run_log(cycle=True).digest(exclude_kinds=exclude)
        plain = self._run_log(cycle=False).digest(exclude_kinds=exclude)
        assert cycled == plain


class TestInstallsSurviveSteeringChurn:
    """The install pipeline is the controller's, not the steering
    app's: bouncing steering while batches are in flight must neither
    orphan their retry timers nor lose their BarrierReplies.  (When
    the app owned it, a restart between barrier and reply re-sent the
    session's 4 FlowMods blind until the attempt cap: 20 FlowMods,
    10 barriers, 16 retries, 4 failures on a healthy channel.)"""

    @staticmethod
    def run_disturbed(disturb, delay_s):
        """One host-to-host session across 3 switches (4 rules on 2
        datapaths, so 2 batches); ``disturb(controller)`` fires
        ``delay_s`` after the first DataPacketIn -- after the barriers
        went out (same tick), before their replies (1 ms round trip)."""
        net = build_livesec_network(
            topology="linear", num_as=3, hosts_per_as=1,
            stats_interval_s=None,
        )
        net.start()
        controller = net.controller
        controller.start_app_watchdog()
        in_flight = []

        def on_first_packet(event):
            if not in_flight:
                in_flight.append(True)
                net.sim.schedule(delay_s, check_and_disturb)

        def check_and_disturb():
            in_flight.append(controller.install_pipeline.pending_batches())
            disturb(controller)

        controller.bus.subscribe(DataPacketIn, on_first_packet, app="test")
        CbrUdpFlow(net.sim, net.host("h1_1"), net.host("h3_1").ip,
                   rate_bps=1e6, max_packets=3).start()
        net.run(3.0)
        assert in_flight[1] == (0, 2)  # both batches were awaiting acks
        return controller

    @pytest.mark.parametrize("delay_s", [0.0, 0.2e-3])
    @pytest.mark.parametrize("disturb", [
        lambda controller: controller.restart_app("steering"),
        lambda controller: controller.crash_app("steering"),
        lambda controller: controller.stop_app("steering"),
    ], ids=["restart", "crash+watchdog", "stop"])
    def test_in_flight_batches_are_acked_once(self, disturb, delay_s):
        controller = self.run_disturbed(disturb, delay_s)
        pipeline = controller.install_pipeline
        assert pipeline.pending_batches() == (0, 0)
        assert pipeline.install_retries.value == 0
        assert pipeline.install_failures.value == 0
        # The session's rules in its two batches, and each datapath's
        # spanning-tree group drop in a batch of its own at its join.
        datapaths = len(controller.switches)
        assert pipeline.flowmods_sent.value == 4 + datapaths
        assert pipeline.barriers_sent.value == 2 + datapaths

    @staticmethod
    def two_shards_toward_the_gateway():
        """2 shards over 4 switches; returns the net, the member owning
        the gateway's switch and a host on the other shard -- so a flow
        from that host to the gateway needs its egress rules applied by
        the owner: 2 remote rule ops."""
        net = build_livesec_network(
            num_shards=2, topology="linear", num_as=4, hosts_per_as=1,
        )
        net.start()
        gateway = net.topology.gateway
        owner = net.owner(
            net.topology.attachments[gateway.name].switch.dpid
        ).shard
        far_dpids = set(net.shard_map.assignments) - set(
            net.shard_map.owned_by(owner.shard_id)
        )
        host = next(
            h for h in net.topology.hosts
            if net.topology.attachments[h.name].switch.dpid in far_dpids
        )
        return net, owner, host

    @pytest.mark.parametrize("disturb", [
        lambda controller: controller.stop_app("steering"),
        lambda controller: (controller.start_app_watchdog(),
                            controller.crash_app("steering")),
    ], ids=["stop", "crash+watchdog"])
    def test_remote_rules_land_without_the_owners_steering_app(self, disturb):
        """A remote rule op is applied by the owner shard's controller,
        not by its steering app.  (When it crossed the owner's bus, a
        stopped steering app dropped 2 of 2 and 0 of 167 frames
        arrived; a crashed one lost the 0.5 s watchdog window.)"""
        net, owner, host = self.two_shards_toward_the_gateway()
        disturb(owner.controller)
        flow = CbrUdpFlow(net.sim, host, GATEWAY_IP,
                          rate_bps=1e6, duration_s=2.0).start()
        net.run(3.0)
        counters = net.metrics_snapshot().counters()
        assert counters["sharding.remote_rule_ops"] == 2
        assert owner.controller.counters["remote_rules_applied"] == 2
        assert owner.controller.counters["remote_rules_unowned"] == 0
        # Every frame but the punted first one, which waits on the
        # inter-shard hop and is released at the ingress only.
        delivered = flow.delivered_bytes(net.topology.gateway)
        assert delivered >= (flow.packets_sent - 1) * flow.packet_size

    def test_rule_for_an_unheld_datapath_is_counted_and_not_forwarded(self):
        """A stale owner map: the op reaches a member that does not
        hold the rule's datapath.  It installs nothing and is never
        routed on -- it must not bounce between shards."""
        from repro.core.routing import RuleSpec
        from repro.openflow.match import Match

        net, owner, _host = self.two_shards_toward_the_gateway()
        foreign = next(
            dpid for dpid in sorted(net.shard_map.assignments)
            if dpid not in owner.controller.switches
        )
        rule = RuleSpec(dpid=foreign, match=Match(), actions=(), priority=1)
        before = net.metrics_snapshot().counters()
        owner.receive_rule_op("add", rule)
        net.run(0.1)
        after = net.metrics_snapshot().counters()
        assert owner.controller.counters["remote_rules_unowned"] == 1
        assert owner.controller.counters["remote_rules_applied"] == 0
        for name in ("sharding.remote_rule_ops", "controller.flowmods_sent",
                     "controller.remote_rules_sent"):
            assert after.get(name, 0) == before.get(name, 0), name

    def test_packet_out_for_an_unheld_datapath_is_counted_and_not_forwarded(
        self
    ):
        """The ARP reply's PacketOut takes the rule op's route and its
        check: routed to a member that no longer holds the datapath (it
        was re-homed inside the hop), it sends nothing, counts as a
        PacketOut -- not as a rule op -- and is never routed on."""
        from repro.net import packet as pkt
        from repro.openflow.actions import Output

        net, owner, host = self.two_shards_toward_the_gateway()
        foreign = next(
            dpid for dpid in sorted(net.shard_map.assignments)
            if dpid not in owner.controller.switches
        )
        sent = []
        for controller in net.controllers:
            controller.send_packet_out = (
                lambda *args, **kwargs: sent.append(args)
            )
        routed = []
        net.coordinator.remote_packet_out = (
            lambda *args: routed.append(args)
        )
        reply = pkt.make_arp_reply(host.mac, host.ip, "00:00:00:00:00:aa",
                                   "10.0.0.99")
        owner.receive_packet_out(foreign, (Output(1),), reply)
        assert owner.controller.counters["remote_packet_outs_unowned"] == 1
        assert owner.controller.counters["remote_rules_unowned"] == 0
        assert sent == [] and routed == []
