"""Failure injection: the reliability claims of Sections III.B/III.C.

* Legacy-Switching redundancy is transparent to LiveSec: when one of
  two redundant cores dies, discovery re-converges on the surviving
  paths and traffic recovers (Section III.B "Reliability").
* AS-switch channel loss removes the switch (and its hosts) from the
  NIB; reconnecting restores it.
* User/VM mobility: a wireless user re-associating with another AP is
  re-learned at the new location and keeps communicating
  (Section III.D.1 mobility).
"""


from repro import build_livesec_network
from repro.core.events import EventKind
from repro.workloads import CbrUdpFlow

GATEWAY_IP = "10.255.255.254"


def _fail_node_links(node):
    for port in node.attached_ports():
        port.link.set_up(False)


class TestCoreFailover:
    def test_traffic_survives_core_death(self):
        """Redundant cores: kill the primary, traffic must recover once
        discovery re-converges and stale flow entries idle out."""
        net = build_livesec_network(
            topology="star", num_as=3, hosts_per_as=1,
            redundant_core=True, idle_timeout_s=2.0,
        )
        net.start()
        src = net.host("h2_1")
        flow = CbrUdpFlow(net.sim, src, GATEWAY_IP, rate_bps=5e6)
        flow.start()
        net.run(2.0)
        assert flow.delivered_bytes(net.gateway) > 0

        _fail_node_links(net.topology.legacy[0])  # kill core-a
        # Recovery budget: LLDP link expiry (~3.5 s) + idle timeout
        # (2 s) + re-setup.
        net.run(10.0)
        recovered_from = flow.delivered_bytes(net.gateway)
        net.run(3.0)
        recovered_to = flow.delivered_bytes(net.gateway)
        flow.stop()
        delivered = recovered_to - recovered_from
        assert delivered > 5e6 * 3.0 / 8 * 0.5, (
            f"traffic did not recover after core failure ({delivered}B in 3s)"
        )

    def test_single_core_death_is_fatal_without_redundancy(self):
        net = build_livesec_network(
            topology="star", num_as=3, hosts_per_as=1,
            redundant_core=False, idle_timeout_s=2.0,
        )
        net.start()
        src = net.host("h2_1")
        flow = CbrUdpFlow(net.sim, src, GATEWAY_IP, rate_bps=5e6)
        flow.start()
        net.run(2.0)
        _fail_node_links(net.topology.legacy[0])
        net.run(8.0)
        stalled_from = flow.delivered_bytes(net.gateway)
        net.run(3.0)
        flow.stop()
        assert flow.delivered_bytes(net.gateway) == stalled_from


class TestChannelLoss:
    def test_switch_leave_cleans_nib(self, small_net):
        channel = small_net.channels[1]
        hosts_on_1 = [
            r.mac for r in small_net.controller.nib.records()
            if r.dpid == 1
        ]
        assert hosts_on_1
        channel.disconnect()
        small_net.run(1.0)
        assert 1 not in small_net.controller.nib.switches
        for mac in hosts_on_1:
            assert small_net.controller.nib.host_by_mac(mac) is None
        leaves = small_net.controller.log.query(kind=EventKind.SWITCH_LEAVE)
        assert leaves and leaves[0].data["dpid"] == 1

    def test_reconnect_restores_switch(self, small_net):
        channel = small_net.channels[1]
        channel.disconnect()
        small_net.run(1.0)
        channel.connect()
        small_net.run(3.0)
        assert 1 in small_net.controller.nib.switches
        assert small_net.controller.nib.is_full_mesh()
        # Hosts re-announce (here: manually, as a real NIC would on
        # carrier regain) and traffic works again.
        src = small_net.host("h1_1")
        src.announce()
        small_net.run(1.0)
        flow = CbrUdpFlow(small_net.sim, src, GATEWAY_IP, rate_bps=4e6,
                          duration_s=1.0)
        flow.start()
        small_net.run(2.0)
        assert flow.delivered_bytes(small_net.gateway) > 0


class TestMobility:
    def test_wireless_user_roams_between_aps(self):
        net = build_livesec_network(
            topology="fit", num_ovs=2, num_aps=2,
            wired_users=0, wireless_users=1,
        )
        net.start()
        station = net.host("wifi1")
        old_ap = net.topology.aps[0]
        new_ap = net.topology.aps[1]
        record = net.controller.nib.host_by_mac(station.mac)
        assert record.dpid == old_ap.dpid

        # Disassociate and re-associate: tear the wireless link down,
        # attach to the other AP, announce (what a real supplicant's
        # reconnection triggers).
        station_port = station.port(1)
        old_link = station_port.link
        ap_side = old_link.other_end(station_port)
        old_link.set_up(False)
        station_port.link = None
        ap_side.link = None
        new_ap.attach_station(station)
        station.announce()
        net.run(1.0)

        record = net.controller.nib.host_by_mac(station.mac)
        assert record.dpid == new_ap.dpid
        flow = CbrUdpFlow(net.sim, station, GATEWAY_IP, rate_bps=2e6,
                          duration_s=1.5)
        flow.start()
        net.run(3.0)
        assert flow.delivered_bytes(net.gateway) > 0


class TestControllerRestart:
    def test_new_controller_rebuilds_state(self):
        """Controller crash + cold restart: a fresh controller attached
        to the same switches re-learns the topology via LLDP, hosts via
        their (re-)announcements, elements via their online messages --
        and traffic flows again."""
        from repro.core.controller import LiveSecController
        from repro.core.visualization import MonitoringComponent
        from repro.openflow.channel import SecureChannel

        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=1,
            elements=[("ids", 1)],
        )
        net.start()
        old_controller = net.controller
        assert old_controller.nib.summary()["hosts"] >= 3

        # Crash: every channel drops.
        for channel in net.channels.values():
            channel.disconnect()
        net.run(0.5)

        # Cold restart: a brand-new controller process takes over.
        new_controller = LiveSecController(net.sim)
        MonitoringComponent(new_controller.log)
        for switch in net.topology.all_openflow_switches():
            SecureChannel(net.sim, switch, new_controller).connect()
        net.controller = new_controller
        net.run(2.0)  # LLDP re-converges
        # Hosts re-announce (carrier flap / periodic gratuitous ARP).
        for host in net.topology.hosts:
            host.announce()
        net.run(3.0)  # element daemons also report within 0.5 s

        summary = new_controller.nib.summary()
        assert summary["full_mesh"]
        assert summary["hosts"] >= 3
        # Traffic works under the new controller.
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                          rate_bps=3e6, duration_s=1.0)
        flow.start()
        net.run(2.0)
        assert flow.delivered_bytes(net.gateway) > 0

    def test_element_reregisters_with_new_controller(self):
        """Element certificates derive from the shared secret, so a
        restarted controller (same secret) accepts the running fleet."""
        from repro.core.controller import LiveSecController
        from repro.openflow.channel import SecureChannel

        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=1,
            elements=[("ids", 1)],
        )
        net.start()
        for channel in net.channels.values():
            channel.disconnect()
        new_controller = LiveSecController(net.sim)
        for switch in net.topology.all_openflow_switches():
            SecureChannel(net.sim, switch, new_controller).connect()
        net.run(3.0)
        assert new_controller.registry.summary()["online"] == 1
