"""Unit tests for topology builders and address allocation."""

import pytest

from repro import build_livesec_network
from repro.net import packet as pkt
from repro.net.topologies import (
    AddressAllocator,
    Topology,
    fit_building,
    linear,
    star,
)


class TestAllocator:
    def test_sequential_unique_addresses(self):
        allocator = AddressAllocator()
        first = allocator.host_addresses()
        second = allocator.host_addresses()
        assert first != second
        assert first == ("00:00:00:00:00:01", "10.0.0.1")
        assert second == ("00:00:00:00:00:02", "10.0.0.2")


class TestLinear:
    def test_shape(self, sim):
        topo = linear(sim, num_as=3, hosts_per_as=2)
        assert len(topo.legacy) == 1
        assert len(topo.as_switches) == 3
        # 6 hosts + gateway
        assert len(topo.hosts) == 7
        assert topo.gateway is not None
        assert topo.gateway.ip == "10.255.255.254"

    def test_attachments_recorded(self, sim):
        topo = linear(sim, num_as=2, hosts_per_as=1)
        attachment = topo.attachments["h1_1"]
        assert attachment.switch is topo.as_switches[0]

    def test_without_gateway(self, sim):
        topo = linear(sim, num_as=2, hosts_per_as=1, with_gateway=False)
        assert topo.gateway is None

    def test_duplicate_dpid_rejected(self, sim):
        topo = Topology(sim)
        topo.add_as_switch("a", dpid=1)
        with pytest.raises(ValueError):
            topo.add_as_switch("b", dpid=1)
        with pytest.raises(ValueError):
            topo.add_ap("c", dpid=1)

    def test_host_by_name_raises_on_unknown(self, sim):
        topo = linear(sim)
        with pytest.raises(KeyError):
            topo.host_by_name("nope")


class TestMoveHost:
    def test_the_old_port_is_unplugged_and_sends_nothing(self):
        net = build_livesec_network("linear", num_as=2, hosts_per_as=2)
        topo, sim = net.topology, net.sim
        old = topo.attachments["h1_1"]
        host, switch = old.host, old.switch
        old_port = switch.ports[old.switch_port]
        host_port = old_port.peer()
        assert host_port.node is host

        def to_host():
            return pkt.make_udp("m2", host.mac, "10.9.9.9", host.ip, 6, 5)

        assert switch.send(to_host(), old.switch_port) is True
        sim.run(until=0.001)
        assert old_port.tx_packets == 1 and host.rx_frames == 1

        topo.move_host("h1_1", topo.as_switches[1])
        assert old_port.link is None and not old_port.is_attached
        assert old_port.peer() is None
        # The unplugged port keeps its tx counters.
        assert old_port.tx_packets == 1
        new = topo.attachments["h1_1"]
        new_port = new.switch.ports[new.switch_port]
        assert new_port.peer() is host_port

        # A frame sent out of the old port is neither transmitted nor
        # delivered; the host's port sends over its new link.
        assert switch.send(to_host(), old.switch_port) is False
        assert host.send(pkt.make_udp(host.mac, "m2", host.ip, "10.9.9.9",
                                      5, 6), host_port.number) is True
        sim.run(until=0.01)
        assert old_port.tx_packets == 1 and old_port.tx_drops == 0
        assert host.rx_frames == 1
        assert new_port.rx_packets == 1


class TestStar:
    def test_redundant_core_dual_homes(self, sim):
        topo = star(sim, num_as=3, hosts_per_as=1, redundant_core=True)
        assert len(topo.legacy) == 2
        for ovs in topo.as_switches:
            uplinks = [p for p in ovs.attached_ports()
                       if p.peer().node in topo.legacy]
            assert len(uplinks) == 2

    def test_single_core(self, sim):
        topo = star(sim, num_as=3, hosts_per_as=1, redundant_core=False)
        assert len(topo.legacy) == 1


class TestFitBuilding:
    def test_paper_scale_shape(self, sim):
        topo = fit_building(sim)
        assert len(topo.as_switches) == 10
        assert len(topo.aps) == 20
        wired = [h for h in topo.hosts if not h.wireless and h is not topo.gateway]
        wireless = [h for h in topo.hosts if h.wireless]
        assert len(wired) == 20
        assert len(wireless) == 30
        assert len(topo.all_openflow_switches()) == 30

    def test_wireless_users_attach_to_aps(self, sim):
        topo = fit_building(sim, num_ovs=2, num_aps=2, wired_users=0,
                            wireless_users=4)
        for host in topo.hosts:
            if host.wireless:
                attachment = topo.attachments[host.name]
                assert attachment.switch in topo.aps

    def test_ap_dpids_disjoint_from_ovs(self, sim):
        topo = fit_building(sim, num_ovs=3, num_aps=3, wired_users=0,
                            wireless_users=0)
        ovs_dpids = {s.dpid for s in topo.as_switches}
        ap_dpids = {a.dpid for a in topo.aps}
        assert not (ovs_dpids & ap_dpids)
