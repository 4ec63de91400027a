"""Tests for the NOX-style app decomposition of the controller."""

import pytest

from repro import Policy, PolicyTable, build_livesec_network
from repro.core.bus import HostExpired, UplinksLost
from repro.core.events import EventKind
from repro.core.policy import (
    FailMode,
    FlowSelector,
    Granularity,
    PolicyAction,
)
from repro.net.packet import FlowNineTuple
from repro.workloads import HttpFlow

GATEWAY_IP = "10.255.255.254"

APP_NAMES = [
    "host-tracker",
    "topology",
    "service-directory",
    "policy-engine",
    "steering",
    "monitor",
]


def http_nine(src_mac, src_ip, sport=40000):
    return FlowNineTuple(
        vlan=None, dl_src=src_mac, dl_dst="gw", dl_type=0x0800,
        nw_src=src_ip, nw_dst=GATEWAY_IP, nw_proto=6,
        tp_src=sport, tp_dst=80,
    )


class TestComposition:
    def test_six_apps_in_fixed_order(self, small_net):
        assert [a.name for a in small_net.controller.apps] == APP_NAMES

    def test_app_lookup_by_name(self, small_net):
        for name in APP_NAMES:
            assert small_net.controller.app(name).name == name
        with pytest.raises(KeyError):
            small_net.controller.app("nope")

    def test_describe_is_json_friendly(self, small_net):
        import json

        for app in small_net.controller.apps:
            description = app.describe()
            json.dumps(description)  # must not raise
            assert description["name"] == app.name
            assert description["summary"]

    def test_event_counters_track_dispatch(self, steering_net):
        net = steering_net
        HttpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                 rate_bps=4e6, duration_s=1.0).start()
        net.run(2.0)
        assert net.controller.app("steering").counters()["DataPacketIn"] > 0
        assert net.controller.app("host-tracker").counters()["ArpIn"] > 0
        directory = net.controller.app("service-directory")
        assert directory.counters()["ServiceFrameIn"] > 0

    def test_subscriptions_listing_matches_bus(self, small_net):
        bus_edges = small_net.controller.bus.subscriptions()
        per_app = sum(
            len(app.subscriptions()) for app in small_net.controller.apps
        )
        assert per_app == len(bus_edges) > 0


class TestTopologyApp:
    def test_switch_join_lands_in_nib(self, small_net):
        nib = small_net.controller.nib
        for dpid in small_net.controller.switches:
            assert dpid in nib.switches

    def test_uplink_loss_published_once_with_all_dpids(self, small_net):
        seen = []
        small_net.controller.bus.subscribe(
            UplinksLost, lambda e: seen.append(e.dpids)
        )
        small_net.controller.bus.publish(UplinksLost(dpids=(1, 2)))
        assert seen == [(1, 2)]


class TestHostExpiry:
    def test_one_pass_keeps_busy_hosts_and_reports_in_nib_order(
        self, small_net
    ):
        controller = small_net.controller
        nib, sessions = controller.nib, controller.sessions
        now = small_net.sim.now
        silent_since = now - nib.host_timeout_s - 1.0
        for port, (mac, is_element) in enumerate([
            ("busy", False), ("blocked-only", False), ("idle", False),
            ("element", True), ("fresh", False),
        ], start=100):
            nib.learn_host(mac, f"10.9.0.{port}", dpid=1, port=port,
                           now=now if mac == "fresh" else silent_since,
                           is_element=is_element)
        live = sessions.create(
            http_nine("busy", "10.9.0.100"), "busy", "gw", None, (), now
        )
        blocked = sessions.create(
            http_nine("blocked-only", "10.9.0.101"), "blocked-only", "gw",
            None, (), now,
        )
        blocked.blocked = True
        expired = []

        def on_expired(event):
            # Every silent host is already out of the NIB when the
            # first HostExpired goes out.
            assert nib.host_by_mac("element") is None
            expired.append(event.record.mac)

        controller.bus.subscribe(HostExpired, on_expired)
        leaves_before = len(controller.log.query(kind=EventKind.HOST_LEAVE))

        controller.app("host-tracker").expire_hosts()

        assert expired == ["blocked-only", "idle", "element"]
        leaves = controller.log.query(kind=EventKind.HOST_LEAVE)[leaves_before:]
        assert [e.data["mac"] for e in leaves] == ["blocked-only", "idle"]
        assert nib.host_by_mac("busy").last_seen == now
        assert nib.host_by_mac("fresh") is not None
        assert sessions.by_id(live.session_id) is live
        assert sessions.by_id(blocked.session_id) is None  # torn down


class TestPolicyEngineApp:
    @pytest.fixture
    def net(self):
        policies = PolicyTable()
        policies.add(Policy(
            name="drop-telnet",
            selector=FlowSelector(tp_dst=23),
            action=PolicyAction.DROP,
        ))
        policies.add(Policy(
            name="inspect-internet",
            selector=FlowSelector(dst_ip=GATEWAY_IP),
            action=PolicyAction.CHAIN,
            service_chain=("ids",),
            fail_mode=FailMode.CLOSED,
        ))
        net = build_livesec_network(
            topology="linear", policies=policies,
            elements=[("ids", 1)], num_as=2, hosts_per_as=1,
        )
        net.start()
        return net

    def engine_and_src(self, net):
        host = net.host("h1_1")
        src = net.controller.nib.host_by_mac(host.mac)
        assert src is not None
        return net.controller.app("policy-engine"), host, src

    def test_default_allow(self, net):
        engine, host, src = self.engine_and_src(net)
        flow = http_nine(host.mac, host.ip)._replace(
            nw_dst="10.0.2.1", dl_dst="other"
        )
        decision = engine.decide(flow, src)
        assert decision.verdict == "allow"
        assert decision.policy is None
        assert decision.policy_name == "default"
        assert decision.waypoints == []

    def test_drop_policy(self, net):
        engine, host, src = self.engine_and_src(net)
        flow = http_nine(host.mac, host.ip)._replace(tp_dst=23)
        decision = engine.decide(flow, src)
        assert decision.verdict == "block"
        assert decision.policy_name == "drop-telnet"

    def test_chain_resolves_waypoints(self, net):
        engine, host, src = self.engine_and_src(net)
        decision = engine.decide(http_nine(host.mac, host.ip), src)
        assert decision.verdict == "allow"
        assert len(decision.waypoints) == 1
        assert decision.element_macs == (net.elements[0].mac,)

    def test_fail_closed_blocks_without_elements(self, net):
        engine, host, src = self.engine_and_src(net)
        net.elements[0].fail()
        net.run(10.0)  # element expires out of the registry
        decision = engine.decide(http_nine(host.mac, host.ip), src)
        assert decision.verdict == "block"
        assert decision.policy_name == "inspect-internet"


class TestUserGrainDispatchStability:
    """Satellite: a known user's later flows must reuse the element the
    user was pinned to, across element churn, until failover moves it."""

    def _element_for(self, net, sport):
        sessions = [
            s for s in net.controller.sessions
            if s.flow.tp_src == sport
        ]
        assert len(sessions) == 1, f"expected one session for sport {sport}"
        assert sessions[0].element_macs, "session must be steered"
        return sessions[0].element_macs[0]

    def test_second_flow_reuses_assignment_across_churn_and_failover(self):
        policies = PolicyTable()
        policies.add(Policy(
            name="inspect",
            selector=FlowSelector(dst_ip=GATEWAY_IP),
            action=PolicyAction.CHAIN,
            service_chain=("ids",),
            granularity=Granularity.USER,
        ))
        net = build_livesec_network(
            topology="linear", policies=policies,
            elements=[("ids", 2)], num_as=3, hosts_per_as=1,
            idle_timeout_s=30.0,
        )
        net.start()
        host = net.host("h1_1")

        flow1 = HttpFlow(net.sim, host, GATEWAY_IP, rate_bps=1e6,
                         sport=31001)
        flow1.start()
        net.run(1.0)
        pinned = self._element_for(net, 31001)

        # Element churn: a new, idle element comes online.  Flow-grain
        # dispatch would prefer it; user grain must stay pinned.
        net.add_element("ids", net.topology.as_switches[2])
        net.run(1.5)
        flow2 = HttpFlow(net.sim, host, GATEWAY_IP, rate_bps=1e6,
                         sport=31002)
        flow2.start()
        net.run(1.0)
        assert self._element_for(net, 31002) == pinned

        # Failover: the pinned element crashes; both sessions re-steer
        # to one surviving element, and the next flow follows it.
        dead = next(e for e in net.elements if e.mac == pinned)
        dead.fail()
        net.run(8.0)  # liveness timeout (5s) + expiry sweep slack
        failovers = net.controller.log.query(kind=EventKind.FLOW_FAILOVER)
        assert {e.data["outcome"] for e in failovers} == {"recovered"}
        replacement = self._element_for(net, 31001)
        assert replacement != pinned
        assert self._element_for(net, 31002) == replacement

        flow3 = HttpFlow(net.sim, host, GATEWAY_IP, rate_bps=1e6,
                         sport=31003)
        flow3.start()
        net.run(1.0)
        assert self._element_for(net, 31003) == replacement
        for flow in (flow1, flow2, flow3):
            flow.stop()


class TestMonitorApp:
    def test_link_load_events_from_port_stats(self, steering_net):
        net = steering_net
        HttpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                 rate_bps=4e6, duration_s=2.0).start()
        net.run(4.0)
        assert net.controller.log.query(kind=EventKind.LINK_LOAD)

    def test_flow_stats_subscription_via_controller(self, small_net):
        seen = []
        unsubscribe = small_net.controller.subscribe_flow_stats(seen.append)
        for dpid in small_net.controller.switches:
            small_net.controller.request_flow_stats(dpid)
        small_net.run(0.5)
        assert seen
        unsubscribe()
        count = len(seen)
        for dpid in small_net.controller.switches:
            small_net.controller.request_flow_stats(dpid)
        small_net.run(0.5)
        assert len(seen) == count


class TestAddApp:
    """The README's extension point: third-party apps via add_app."""

    def _watcher_class(self):
        from repro.core.apps import App
        from repro.core.bus import DataPacketIn

        class Watcher(App):
            name = "watcher"
            summary = "records data packet-ins"

            def __init__(self, ctx):
                super().__init__(ctx)
                self.seen = 0
                self.listen(DataPacketIn, self.on_data_packet)

            def on_data_packet(self, event):
                self.seen += 1

        return Watcher

    def test_registered_app_receives_events(self, steering_net):
        net = steering_net
        watcher = net.controller.add_app(self._watcher_class())
        assert net.controller.app("watcher") is watcher
        assert watcher in net.controller.apps
        HttpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                 rate_bps=1e6, duration_s=0.5).start()
        net.run(1.0)
        assert watcher.seen > 0
        assert watcher.counters()["DataPacketIn"] == watcher.seen

    def test_duplicate_name_rejected(self, small_net):
        small_net.controller.add_app(self._watcher_class())
        with pytest.raises(ValueError):
            small_net.controller.add_app(self._watcher_class())
