"""Tests for the deterministic fault-injection harness (repro.faults).

Covers the plan builder's validation, eager target resolution, the
injector's fault actions (element crash/hang/slow-report, switch
disconnect+reconnect, switch reboot, channel chaos), the controller's recovery
machinery they exercise (failover, resync, barrier-acked retries,
fail-open/fail-closed), and the determinism contract: two same-seed
runs replay event for event.
"""

import pytest

from repro.core.deployment import build_livesec_network, build_sharded_network
from repro.core.events import EventKind
from repro.core.routing import DROP_PRIORITY
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultTargetError,
    run_chaos_scenario,
)
from repro.faults.scenarios import GATEWAY_IP, chaos_policy_table
from repro.workloads import AttackWebFlow, CbrUdpFlow
from tests.conftest import attach_rejected_element


def build_net(fail_mode="open", num_elements=2, num_as=2, hosts_per_as=1,
              shards=1):
    """The steered linear deployment, on one controller or on a fabric
    of ``shards`` (which needs at least that many switches)."""
    kwargs = dict(
        topology="linear",
        elements=[("ids", num_elements)],
        num_as=max(num_as, shards),
        hosts_per_as=hosts_per_as,
        element_timeout_s=1.5,
        dispatcher="polling",
    )
    if shards == 1:
        return build_livesec_network(
            policies=chaos_policy_table(fail_mode), **kwargs
        )
    return build_sharded_network(
        num_shards=shards, policies=lambda: chaos_policy_table(fail_mode),
        **kwargs
    )


def start_traffic(net, duration_s, num_hosts=None):
    hosts = [h for h in net.topology.hosts if h is not net.topology.gateway]
    for host in hosts[:num_hosts]:
        CbrUdpFlow(net.sim, host, GATEWAY_IP,
                   rate_bps=2e6, duration_s=duration_s).start()


class TestFaultPlanBuilder:
    def test_chaining_and_iteration(self):
        plan = (FaultPlan(seed=7)
                .element_crash(5.0, "ids-1")
                .channel_chaos(2.0, "*", drop_rate=0.1, until_s=8.0))
        assert len(plan) == 2
        assert [f.kind for f in plan] == ["element-crash", "channel-chaos"]

    def test_describe_is_schedule_ordered(self):
        plan = (FaultPlan()
                .element_crash(5.0, "ids-1")
                .switch_disconnect(1.0, "ovs1"))
        lines = plan.describe()
        assert lines[0].startswith("t=1s switch-disconnect")
        assert lines[1].startswith("t=5s element-crash")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().element_crash(-1.0, "ids-1")

    def test_restart_must_follow_crash(self):
        with pytest.raises(ValueError):
            FaultPlan().element_crash(5.0, "ids-1", restart_at_s=5.0)

    def test_hang_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan().element_hang(1.0, "ids-1", duration_s=0.0)

    def test_slow_report_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan().element_slow_report(1.0, "ids-1", interval_s=-1.0)

    def test_reconnect_must_follow_disconnect(self):
        with pytest.raises(ValueError):
            FaultPlan().switch_disconnect(3.0, "ovs1", reconnect_at_s=2.0)

    def test_link_down_time_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan().link_flap(1.0, "ovs1", "core", down_s=0.0)

    def test_reboot_down_time_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan().switch_reboot(1.0, "ovs1", down_s=0.0)

    def test_channel_rates_bounded(self):
        with pytest.raises(ValueError):
            FaultPlan().channel_chaos(1.0, "*", drop_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan().channel_chaos(1.0, "*", duplicate_rate=-0.1)

    def test_channel_until_must_follow_start(self):
        with pytest.raises(ValueError):
            FaultPlan().channel_chaos(5.0, "*", drop_rate=0.1, until_s=5.0)

    def test_channel_directions_validated(self):
        with pytest.raises(ValueError):
            FaultPlan().channel_chaos(1.0, "*", drop_rate=0.1,
                                      directions=("sideways",))


class TestTargetResolution:
    def test_unknown_element_raises_at_arm(self):
        net = build_net()
        injector = FaultInjector(net, FaultPlan().element_crash(1.0, "nope"))
        with pytest.raises(FaultTargetError):
            injector.arm()

    def test_unknown_switch_raises_at_arm(self):
        net = build_net()
        injector = FaultInjector(
            net, FaultPlan().switch_disconnect(1.0, "ovs99"))
        with pytest.raises(FaultTargetError):
            injector.arm()

    def test_unlinked_nodes_raise_at_arm(self):
        # Both nodes exist but share no link (linear wires each OvS to
        # the core, never to each other).
        net = build_net()
        injector = FaultInjector(
            net, FaultPlan().link_flap(1.0, "ovs1", "ovs2", down_s=1.0))
        with pytest.raises(FaultTargetError):
            injector.arm()

    def test_unknown_node_raises_at_arm(self):
        net = build_net()
        injector = FaultInjector(
            net, FaultPlan().link_flap(1.0, "ghost", "core", down_s=1.0))
        with pytest.raises(FaultTargetError):
            injector.arm()

    def test_arm_twice_rejected(self):
        net = build_net()
        injector = FaultInjector(net, FaultPlan())
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()


class TestScenarioValidation:
    def test_bad_fail_mode(self):
        with pytest.raises(ValueError):
            run_chaos_scenario(fail_mode="maybe")

    def test_bad_crash_selector(self):
        with pytest.raises(ValueError):
            run_chaos_scenario(crash="some")


class TestCrashRecovery:
    def test_crash_with_healthy_peers_recovers_every_session(self):
        report = run_chaos_scenario(seed=3, fail_mode="open", crash="one",
                                    duration_s=10.0, num_hosts=3)
        assert report.injected.get("element-crash") == 1
        assert report.affected_sessions > 0
        assert report.recovered_sessions == report.affected_sessions
        assert report.unrecovered_sessions == 0
        # The recovery histogram actually observed the failovers, on
        # the simulator clock, bounded by liveness timeout + report
        # interval + expiry sweep.
        assert report.time_to_recover_s["count"] == report.affected_sessions
        assert 0.0 < report.time_to_recover_s["max"] <= 3.5
        assert 0.0 < report.time_to_detect_s["max"] <= 3.5

    def test_recovery_metrics_recorded(self):
        # The acceptance shape, asserted on the raw registry: crash at
        # t=5 with two healthy peers -> recovered == affected, and the
        # time-to-recover histogram actually observed the failovers.
        net = build_net(num_elements=3, hosts_per_as=2)
        plan = FaultPlan().element_crash(5.0, net.elements[0].name)
        FaultInjector(net, plan).arm()
        net.start()
        start_traffic(net, duration_s=10.0)
        net.run(10.0)
        snapshot = net.controller.metrics.snapshot()
        counters = snapshot.counters()
        affected = counters["faults.affected_sessions"]
        assert affected > 0
        assert counters["faults.recovered_sessions"] == affected
        recover = snapshot.get("recovery.time_to_recover_s")
        assert recover.count == affected
        assert recover.max > 0.0

    def test_crash_all_fail_open_continues_unsteered(self):
        report = run_chaos_scenario(seed=3, fail_mode="open", crash="all",
                                    duration_s=10.0, num_hosts=3)
        assert report.affected_sessions > 0
        assert report.failed_open_sessions == report.affected_sessions
        assert report.recovered_sessions == 0
        assert report.unrecovered_sessions == 0

    def test_crash_all_fail_closed_blocks_sessions(self):
        report = run_chaos_scenario(seed=3, fail_mode="closed", crash="all",
                                    duration_s=10.0, num_hosts=3)
        assert report.affected_sessions > 0
        assert report.blocked_sessions == report.affected_sessions
        assert report.unrecovered_sessions == 0

    def test_fail_closed_installs_ingress_drop_entries(self):
        # Crash after the warmup-started session exists; stop before
        # the now-shadowed steering entries idle out (their FlowRemoved
        # ends the session record -- the ingress drop entry, with no
        # timeouts, is what keeps the user blocked).
        net = build_net(fail_mode="closed", num_elements=1)
        plan = FaultPlan().element_crash(3.0, net.elements[0].name)
        FaultInjector(net, plan).arm()
        net.start()
        start_traffic(net, duration_s=8.0, num_hosts=1)
        net.run(4.0)
        sessions = list(net.controller.sessions)
        assert sessions and all(s.blocked for s in sessions)
        ingress = net.topology.as_switches[0]
        drops = [e for e in ingress.table
                 if e.priority == 200 and e.actions == ()]
        assert drops

    def test_crashed_element_restart_recertifies(self):
        net = build_net(num_elements=1)
        element = net.elements[0]
        plan = FaultPlan().element_crash(2.0, element.name, restart_at_s=6.0)
        injector = FaultInjector(net, plan)
        injector.arm()
        net.start()
        net.run(10.0)
        record = net.controller.registry.get(element.mac)
        assert record.offline_count == 1
        assert record.recovered_count == 1
        assert record.online
        assert injector.summary()["injected"]["element-restart"] == 1


class TestHangAndSlowReport:
    def test_hang_expires_then_self_recovers(self):
        net = build_net(num_elements=1)
        element = net.elements[0]
        plan = FaultPlan().element_hang(2.0, element.name, duration_s=3.0)
        FaultInjector(net, plan).arm()
        net.start()
        net.run(8.0)
        record = net.controller.registry.get(element.mac)
        # Silent past the 1.5s liveness timeout -> expired; the daemon
        # keeps ticking, so the first post-hang report re-certifies.
        assert record.offline_count == 1
        assert record.recovered_count == 1
        assert record.online

    def test_slow_report_expires_then_restores(self):
        net = build_net(num_elements=1)
        element = net.elements[0]
        plan = FaultPlan().element_slow_report(
            2.0, element.name, interval_s=6.0,
            restore_at_s=6.0, restore_interval_s=0.5,
        )
        FaultInjector(net, plan).arm()
        net.start()
        net.run(10.0)
        record = net.controller.registry.get(element.mac)
        assert record.offline_count >= 1
        assert record.recovered_count >= 1
        assert record.online


    @pytest.mark.parametrize("shards", [1, 2])
    def test_detections_are_filed_under_the_open_injection(self, shards):
        """Crash -> restart -> slow-report on one element: the restart
        closes the crash's record, so what the slow reporter costs is
        filed under ``element-slow-report``, on its own clock.  (The
        fault kind used to outlive the restart: every later detection
        landed in the ``element-crash`` row.)"""
        net = build_net(num_elements=1, shards=shards)
        element = net.elements[0]
        plan = (FaultPlan()
                .element_crash(3.0, element.name, restart_at_s=6.0)
                .element_slow_report(8.0, element.name, interval_s=4.0))
        injector = FaultInjector(net, plan)
        injector.arm()
        net.start()
        net.run(18.0)
        per_fault = injector.summary()["per_fault"]
        crash = per_fault["element-crash"]["time_to_detect_s"]
        slow = per_fault["element-slow-report"]["time_to_detect_s"]
        assert crash["count"] == 1
        assert crash["max"] <= 3.0  # measured from t=3, not from t=8
        # The deliberate asymmetry: one controller scores every
        # ELEMENT_OFFLINE of an open injection (a slow reporter expires
        # once per report gap); a fabric scores the origin's first
        # only, because borrower shards re-log the same death.
        assert slow["count"] == (3 if shards == 1 else 1)
        assert slow["min"] == pytest.approx(2.0)


class TestSwitchDisconnect:
    def test_reconnect_triggers_flow_table_resync(self):
        # Disconnect after the session's rules are on ovs1 (traffic
        # starts when the warmup ends at t=2), so the reconnect has
        # state to resync.
        net = build_net(num_elements=2)
        plan = FaultPlan().switch_disconnect(3.0, "ovs1", reconnect_at_s=4.0)
        injector = FaultInjector(net, plan)
        injector.arm()
        net.start()
        start_traffic(net, duration_s=6.0, num_hosts=1)
        net.run(6.0)
        injected = injector.summary()["injected"]
        assert injected["switch-disconnect"] == 1
        assert injected["switch-reconnect"] == 1
        kinds = [event.kind for event in net.controller.log.all()]
        assert EventKind.SWITCH_RESYNC in kinds
        counters = net.controller.metrics.snapshot().counters()
        assert counters.get("controller.rules_resynced", 0) > 0


class TestSwitchReboot:
    """A rebooted switch forgets its table and tells nobody; the
    controller's book -- blocks included -- puts it back."""

    REBOOT_AT_S, DOWN_S = 5.0, 0.01

    def blocked_sender(self, net, what):
        """From t=2 on ovs1, sending to the gateway through the IDS for
        10 s: an attack the IDS blocks on its 4th packet (a flow
        block), or a 2 Mb/s stream from an uncertified 'element' whose
        garbage service message at t=2.5 gets its source blocked."""
        if what == "flow":
            sender = net.host("h1_1")
            flow = AttackWebFlow(net.sim, sender, GATEWAY_IP, rate_bps=2e6,
                                 attack_after=3, duration_s=10.0)
        else:
            sender = attach_rejected_element(
                net, net.topology.as_switches[0], at_s=2.5
            )
            sender.announce()
            flow = CbrUdpFlow(net.sim, sender, GATEWAY_IP, rate_bps=2e6,
                              duration_s=10.0)
        flow.start()
        return sender, flow

    @pytest.mark.parametrize("what", ["flow", "source"])
    def test_a_block_survives_the_reboot_of_its_switch(self, what):
        net = build_livesec_network(
            topology="star", num_as=4, hosts_per_as=1, elements=[("ids", 1)],
            policies=chaos_policy_table("open"),
        )
        plan = FaultPlan().switch_reboot(self.REBOOT_AT_S, "ovs1", self.DOWN_S)
        injector = FaultInjector(net, plan)
        injector.arm()
        net.start()  # t = 2
        switch = net.topology.as_switches[0]
        sender, flow = self.blocked_sender(net, what)
        ids = net.elements[0].mac
        latency = net.channels[switch.dpid].latency_s

        def drops():
            return [
                entry for entry in switch.table
                if entry.priority >= DROP_PRIORITY
                and entry.match.dl_src == sender.mac
            ]

        def run_until(at_s):
            net.run(at_s - net.sim.now)

        run_until(self.REBOOT_AT_S - 1e-3)
        assert len(drops()) == 1
        punts_before = switch.packet_ins
        at_block = flow.delivered_bytes(net.gateway)
        assert net.controller.sessions.load_of(ids) == 1

        back_at = self.REBOOT_AT_S + self.DOWN_S
        run_until(back_at)
        assert len(switch.table) == 0
        # One install round trip after the reconnect: the channel-up
        # reaches the controller, the resync's FlowMods the switch.
        run_until(back_at + 2 * latency + 1e-6)
        assert len(drops()) == 1
        assert injector.summary()["injected"] == {
            "switch-reboot": 1, "switch-reconnect": 1,
        }
        resyncs = net.controller.log.query(kind=EventKind.SWITCH_RESYNC)
        assert [event.data["dpid"] for event in resyncs] == [switch.dpid]

        # "Block at the entrance", not at the controller: the frames
        # die on the switch again, so it punts no more than before.
        run_until(back_at + 6.5)
        rate_before = punts_before / (self.REBOOT_AT_S - 2.0)
        rate_after = (switch.packet_ins - punts_before) / 6.5
        assert rate_after <= 1.2 * rate_before
        assert flow.delivered_bytes(net.gateway) == at_block

        # The shadowed session went back under its drop, so it idles
        # out and stops loading the IDS once the sender is quiet (flow
        # over at t=12; idle timeout 5 s; expiry sweep every 1 s).
        run_until(12.0 + net.controller.idle_timeout_s + 1.5)
        assert flow.delivered_bytes(net.gateway) == at_block
        assert len(net.controller.sessions) == 0
        assert net.controller.sessions.load_of(ids) == 0
        assert len(drops()) == 1


class TestLinkFlap:
    def test_the_link_is_down_for_down_s_then_carries_traffic_again(self):
        net = build_net(num_elements=2)
        plan = FaultPlan().link_flap(4.0, "ovs1", "core", down_s=0.5)
        injector = FaultInjector(net, plan)
        injector.arm()
        net.start()
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                          rate_bps=2e6, duration_s=6.0).start()
        link = injector._link("ovs1", "core")

        def delivered_at(at_s):
            net.run(at_s - net.sim.now)
            return flow.delivered_bytes(net.gateway)

        assert link.up and delivered_at(4.0 - 1e-3) > 0
        cut = delivered_at(4.0 + 1e-3)
        assert not link.up
        assert delivered_at(4.5 - 1e-3) == cut
        assert not link.up
        delivered_at(4.5 + 1e-3)
        assert link.up
        assert delivered_at(5.0) > cut

        marks = net.controller.log.query(kind=EventKind.FAULT_INJECTED)
        assert [(e.time, e.data) for e in marks] == [(4.0, {
            "fault": "link-flap", "node_a": "ovs1", "node_b": "core",
            "down_s": 0.5,
        })]
        summary = injector.summary()
        assert summary["injected"] == {"link-flap": 1}
        # No fault family scores a flap: the controller learns of it
        # only through an LLDP timeout, so no TTD/TTR sample is taken.
        assert summary["per_fault"] == {}
        snapshot = net.metrics_snapshot()
        for prefix in ("recovery.", "accountability.", "recovery.shard_",
                       "recovery.app_"):
            for edge in ("detect", "recover"):
                assert snapshot.get(f"{prefix}time_to_{edge}_s").count == 0


class TestChannelChaos:
    def test_lossy_channel_forces_retries_but_recovers(self):
        report = run_chaos_scenario(seed=11, fail_mode="open", crash="one",
                                    duration_s=9.0, num_hosts=2,
                                    channel_drop_rate=0.2)
        assert report.install_retries > 0
        assert report.affected_sessions > 0
        assert report.recovered_sessions == report.affected_sessions
        assert report.unrecovered_sessions == 0


class TestDeterminism:
    def test_same_seed_same_event_log(self):
        kwargs = dict(seed=5, fail_mode="open", crash="one",
                      duration_s=9.0, num_hosts=2, channel_drop_rate=0.2)
        first = run_chaos_scenario(**kwargs)
        second = run_chaos_scenario(**kwargs)
        assert first.event_lines == second.event_lines
        assert first.event_digest == second.event_digest

    def test_same_plan_scores_the_same_on_every_shape(self):
        """One controller, 2 shards, 4 shards: the same element-crash
        plan yields the same report, bar the shard fields and the log
        itself (a fabric logs its hellos, so count and digest move)."""
        shape_specific = {"shards", "rehomed_switches", "handoff_sessions",
                          "events", "event_digest"}
        reports = []
        for shards in (1, 2, 4):
            plan = FaultPlan(seed=0).element_crash(5.0, "ids-1")
            report = run_chaos_scenario(plan=plan, shards=shards).to_dict()
            assert (set(report) & shape_specific == {"events", "event_digest"}
                    if shards == 1 else report["shards"] == shards)
            reports.append({
                key: value for key, value in report.items()
                if key not in shape_specific
            })
        assert reports[0]["affected_sessions"] > 0
        assert reports[0]["per_fault"]["element-crash"]
        assert reports[0] == reports[1] == reports[2]

    def test_different_seed_diverges_under_chaos(self):
        # The seed only matters where the RNG is drawn: with channel
        # chaos active, different seeds drop different messages and the
        # logs diverge.
        first = run_chaos_scenario(seed=1, fail_mode="open", crash="one",
                                   duration_s=9.0, num_hosts=2,
                                   channel_drop_rate=0.2)
        second = run_chaos_scenario(seed=2, fail_mode="open", crash="one",
                                    duration_s=9.0, num_hosts=2,
                                    channel_drop_rate=0.2)
        assert first.event_digest != second.event_digest

    def test_fault_injections_appear_in_event_log(self):
        report = run_chaos_scenario(seed=0, fail_mode="open", crash="one",
                                    duration_s=7.0, num_hosts=1)
        assert any(EventKind.FAULT_INJECTED in line
                   for line in report.event_lines)
