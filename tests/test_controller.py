"""Integration tests for the LiveSec controller application."""

from dataclasses import replace

from repro import Policy, PolicyTable, build_livesec_network
from repro.core.events import EventKind
from repro.core.policy import FailMode, FlowSelector, PolicyAction
from repro.workloads import AttackWebFlow, CbrUdpFlow, HttpFlow

GATEWAY_IP = "10.255.255.254"


class TestDiscovery:
    def test_full_mesh_and_switch_inventory(self, small_net):
        nib = small_net.controller.nib.summary()
        assert nib["switches"] == 2
        assert nib["full_mesh"]

    def test_hosts_learned_with_location(self, small_net):
        controller = small_net.controller
        host = small_net.host("h1_1")
        record = controller.nib.host_by_mac(host.mac)
        assert record is not None
        assert record.ip == host.ip
        attachment = small_net.topology.attachments[host.name]
        assert record.dpid == attachment.switch.dpid
        assert record.port == attachment.switch_port

    def test_host_join_events_emitted(self, small_net):
        joins = small_net.controller.log.query(kind=EventKind.HOST_JOIN)
        assert len(joins) == 3  # 2 hosts + gateway

    def test_uplink_ports_identified(self, small_net):
        controller = small_net.controller
        for switch in small_net.topology.as_switches:
            assert controller.nib.uplink_port(switch.dpid) is not None


class TestEndToEndRouting:
    def test_udp_flow_delivered(self, small_net):
        src = small_net.host("h1_1")
        flow = CbrUdpFlow(small_net.sim, src, GATEWAY_IP, rate_bps=5e6,
                          duration_s=1.0)
        flow.start()
        small_net.run(2.0)
        assert flow.delivered_bytes(small_net.gateway) > 0
        assert small_net.controller.counters["flows_installed"] >= 1

    def test_bidirectional_session(self, small_net):
        h1 = small_net.host("h1_1")
        h2 = small_net.host("h2_1")
        h2.on_app(17, 9000, lambda host, frame: host.send_udp(
            frame.ip().src, 9000, frame.transport().sport, payload=b"pong"))
        h1.send_udp(h2.ip, 1234, 9000, payload=b"ping")
        small_net.run(1.0)
        # The reply used the pre-installed reverse entry: one session.
        assert len(small_net.controller.sessions) == 1
        assert h1.rx_frames >= 1

    def test_ping_between_hosts(self, small_net):
        h1 = small_net.host("h1_1")
        h2 = small_net.host("h2_1")
        h1.ping(h2.ip)
        small_net.run(2.0)
        assert len(h1.ping_rtts) == 1

    def test_session_teardown_on_idle(self, small_net):
        src = small_net.host("h1_1")
        flow = CbrUdpFlow(small_net.sim, src, GATEWAY_IP, rate_bps=5e6,
                          duration_s=0.5)
        flow.start()
        small_net.run(1.0)
        assert len(small_net.controller.sessions) == 1
        small_net.run(10.0)  # idle timeout (5s default) passes
        assert len(small_net.controller.sessions) == 0
        ends = small_net.controller.log.query(kind=EventKind.FLOW_END)
        assert len(ends) == 1
        assert ends[0].data["packets"] > 0

    def test_arp_answered_by_directory_without_fabric_broadcast(
            self, small_net):
        src = small_net.host("h1_1")
        dst = small_net.host("h2_1")
        floods_before = small_net.controller.directory.arp_floods
        src.send_udp(dst.ip, 1, 2)
        small_net.run(1.0)
        assert src.arp_table[dst.ip][0] == dst.mac
        assert small_net.controller.directory.arp_replies >= 1
        assert small_net.controller.directory.arp_floods == floods_before


class TestPolicyEnforcement:
    def test_drop_policy_blocks_flow(self):
        policies = PolicyTable()
        policies.add(Policy(name="no-gw", selector=FlowSelector(
            dst_ip=GATEWAY_IP), action=PolicyAction.DROP))
        net = build_livesec_network(topology="linear", policies=policies,
                                    num_as=2, hosts_per_as=1)
        net.start()
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                          rate_bps=5e6, duration_s=1.0)
        flow.start()
        net.run(2.0)
        assert flow.delivered_bytes(net.gateway) == 0
        assert net.controller.counters["flows_blocked"] == 1

    def test_chain_steers_through_element(self, steering_net):
        src = steering_net.host("h3_1")
        flow = HttpFlow(steering_net.sim, src, GATEWAY_IP, rate_bps=5e6,
                        duration_s=1.0)
        flow.start()
        steering_net.run(2.0)
        assert flow.delivered_bytes(steering_net.gateway) > 0
        processed = sum(e.processed_packets for e in steering_net.elements)
        assert processed > 0
        steered = steering_net.controller.log.query(
            kind=EventKind.FLOW_STEERED)
        assert len(steered) == 1

    def test_attack_detected_and_blocked(self, steering_net):
        src = steering_net.host("h1_1")
        flow = AttackWebFlow(steering_net.sim, src, GATEWAY_IP,
                             rate_bps=2e6, duration_s=3.0)
        flow.start()
        steering_net.run(4.0)
        attacks = steering_net.controller.log.query(
            kind=EventKind.ATTACK_DETECTED)
        blocks = steering_net.controller.log.query(
            kind=EventKind.FLOW_BLOCKED)
        assert len(attacks) >= 1
        assert len(blocks) >= 1
        assert attacks[0].data["user_mac"] == src.mac

    def test_no_element_fallback_allow(self, ids_policy_table):
        # The policy sets no fail mode: it fails open.
        net = build_livesec_network(
            topology="linear", policies=ids_policy_table,
            num_as=2, hosts_per_as=1,
        )
        net.start()
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                          rate_bps=5e6, duration_s=1.0)
        flow.start()
        net.run(2.0)
        assert flow.delivered_bytes(net.gateway) > 0
        assert net.controller.counters["no_element_fallback"] == 1

    def test_no_element_fallback_drop(self, ids_policy_table):
        (row,) = ids_policy_table
        policy = replace(row, fail_mode=FailMode.CLOSED)
        ids_policy_table.begin(source="test").replace_all([policy]).commit()
        net = build_livesec_network(
            topology="linear", policies=ids_policy_table,
            num_as=2, hosts_per_as=1,
        )
        net.start()
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                          rate_bps=5e6, duration_s=1.0)
        flow.start()
        net.run(2.0)
        assert flow.delivered_bytes(net.gateway) == 0


class TestElementManagement:
    def test_elements_register_via_messages(self, steering_net):
        registry = steering_net.controller.registry.summary()
        assert registry["online"] == 2
        assert registry["by_type"] == {"ids": 2}

    def test_element_load_events_flow(self, steering_net):
        loads = steering_net.controller.log.query(kind=EventKind.ELEMENT_LOAD)
        assert len(loads) >= 2

    def test_uncertified_element_blocked(self, small_net):
        from repro.elements import IntrusionDetectionElement
        from repro.net.node import connect

        rogue = IntrusionDetectionElement(
            small_net.sim, "rogue", "00:00:00:00:99:99", "10.9.9.9")
        rogue.provision("forged")
        connect(small_net.sim, small_net.topology.as_switches[0], rogue,
                bandwidth_bps=1e9, delay_s=5e-6)
        small_net.run(2.0)
        rejected = small_net.controller.log.query(
            kind=EventKind.ELEMENT_REJECTED)
        assert rejected and rejected[0].data["mac"] == rogue.mac
        assert not small_net.controller.registry.is_element(rogue.mac)
        # And its traffic is blocked at its ingress switch.
        switch = small_net.topology.as_switches[0]
        assert any(
            entry.is_drop and entry.match.dl_src == rogue.mac
            for entry in switch.table
        )

    def test_element_offline_after_silence(self, steering_net):
        element = steering_net.elements[0]
        element.shutdown()
        steering_net.run(10.0)
        record = steering_net.controller.registry.get(element.mac)
        assert not record.online
        offline = steering_net.controller.log.query(
            kind=EventKind.ELEMENT_OFFLINE)
        assert offline and offline[0].data["mac"] == element.mac

    def test_traffic_reroutes_after_element_failure(self, steering_net):
        """Flows steered to a dead element re-steer to the survivor."""
        src = steering_net.host("h3_1")
        flow = HttpFlow(steering_net.sim, src, GATEWAY_IP, rate_bps=4e6)
        flow.start()
        steering_net.run(1.0)
        assigned_mac = next(
            iter(steering_net.controller.sessions)).element_macs[0]
        victim = next(e for e in steering_net.elements
                      if e.mac == assigned_mac)
        victim.shutdown()
        steering_net.run(15.0)
        before = flow.delivered_bytes(steering_net.gateway)
        steering_net.run(3.0)
        after = flow.delivered_bytes(steering_net.gateway)
        flow.stop()
        assert after > before, "traffic did not recover after element death"
        survivor = next(e for e in steering_net.elements if e is not victim)
        assert survivor.processed_packets > 0


class TestHostChurn:
    def test_silent_host_expires_with_leave_event(self):
        net = build_livesec_network(topology="linear", num_as=2,
                                    hosts_per_as=1, host_timeout_s=3.0)
        net.start()
        # h1_1 stays silent; everything ages out except session holders.
        net.run(12.0)
        leaves = net.controller.log.query(kind=EventKind.HOST_LEAVE)
        assert leaves, "silent hosts must age out"

    def test_rejoin_after_expiry(self):
        net = build_livesec_network(topology="linear", num_as=2,
                                    hosts_per_as=1, host_timeout_s=3.0)
        net.start()
        net.run(12.0)
        host = net.host("h1_1")
        host.announce()
        net.run(1.0)
        assert net.controller.nib.host_by_mac(host.mac) is not None


class TestHostMobility:
    def test_same_tick_roam_emits_move_not_join(self, small_net):
        """Regression: a host roaming (e.g. wired -> wifi) within the
        same sim tick it was first learned must emit HOST_MOVE, not a
        second HOST_JOIN -- the old timestamp-based inference saw
        first_seen == last_seen and mislabelled it."""
        controller = small_net.controller
        switches = small_net.topology.as_switches
        mac, ip = "00:00:00:00:aa:01", "10.0.99.1"
        tracker = controller.app("host-tracker")
        tracker.learn_host(mac, ip, switches[0].dpid, 99)
        tracker.learn_host(mac, ip, switches[1].dpid, 98)
        moves = controller.log.query(kind=EventKind.HOST_MOVE)
        assert [(e.data["dpid"], e.data["port"]) for e in moves] == [
            (switches[1].dpid, 98)
        ]
        joins = [e for e in controller.log.query(kind=EventKind.HOST_JOIN)
                 if e.data["mac"] == mac]
        assert len(joins) == 1
        record = controller.nib.host_by_mac(mac)
        assert (record.dpid, record.port) == (switches[1].dpid, 98)

    def test_refresh_at_same_port_is_not_a_move(self, small_net):
        controller = small_net.controller
        switch = small_net.topology.as_switches[0]
        mac = "00:00:00:00:aa:02"
        tracker = controller.app("host-tracker")
        tracker.learn_host(mac, "10.0.99.2", switch.dpid, 97)
        tracker.learn_host(mac, "10.0.99.2", switch.dpid, 97)
        assert not controller.log.query(kind=EventKind.HOST_MOVE)


class TestFlowStatsSubscription:
    @staticmethod
    def _poll_stats(net):
        """Install a flow entry, then ask every switch for flow stats."""
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                          rate_bps=5e6, duration_s=1.0)
        flow.start()
        net.run(2.0)
        for dpid in list(net.controller.switches):
            net.controller.request_flow_stats(dpid)
        net.run(1.0)

    def test_subscriber_receives_stats(self, small_net):
        seen = []
        small_net.controller.subscribe_flow_stats(seen.append)
        self._poll_stats(small_net)
        assert seen, "flow-stats replies should reach the subscriber"
        assert all(hasattr(reply, "entries") for reply in seen)

    def test_unsubscribe_stops_delivery_and_is_idempotent(self, small_net):
        seen = []
        unsubscribe = small_net.controller.subscribe_flow_stats(seen.append)
        unsubscribe()
        unsubscribe()  # second call must be a no-op
        self._poll_stats(small_net)
        assert seen == []


class TestMonitoring:
    def test_link_load_events_from_port_stats(self, small_net):
        flow = CbrUdpFlow(small_net.sim, small_net.host("h1_1"), GATEWAY_IP,
                          rate_bps=20e6, duration_s=3.0)
        flow.start()
        small_net.run(4.0)
        loads = small_net.controller.log.query(kind=EventKind.LINK_LOAD)
        assert loads
        assert any(e.data["utilization"] > 0.01 for e in loads)

    def test_status_overview(self, small_net):
        status = small_net.controller.status()
        assert set(status.to_dict()) == {"nib", "registry", "sessions",
                                         "counters", "events"}


class TestServiceMessageChannel:
    def test_element_messages_never_get_flow_entries(self, steering_net):
        """Section III.D.1: the controller must not install an entry
        for the element->controller UDP flow, so every message keeps
        reaching it."""
        element = steering_net.elements[0]
        switch = element.port(1).peer().node
        reports_before = steering_net.controller.registry.get(
            element.mac).reports
        steering_net.run(3.0)
        reports_after = steering_net.controller.registry.get(
            element.mac).reports
        # Messages kept flowing (several report intervals passed)...
        assert reports_after >= reports_before + 4
        # ...and no flow entry matches the message channel.
        from repro.core.messages import SERVICE_MESSAGE_PORT

        assert not any(
            entry.match.tp_dst == SERVICE_MESSAGE_PORT
            for entry in switch.table
        )

    def test_dhcp_served_by_directory(self, small_net):
        from repro.net.packet import Dhcp, Ethernet

        host = small_net.host("h1_1")
        offers = []
        original = host.receive

        def spy(frame, in_port):
            if isinstance(frame.payload, Dhcp):
                offers.append(frame.payload)
                return
            original(frame, in_port)

        host.receive = spy
        discover = Ethernet(src=host.mac, dst="ff:ff:ff:ff:ff:ff",
                            ethertype=0x0800, size=300)
        discover.payload = Dhcp(opcode="discover", client_mac=host.mac)
        host.send(discover, 1)
        small_net.run(1.0)
        assert offers and offers[0].opcode == "offer"
        assert offers[0].offered_ip is not None
