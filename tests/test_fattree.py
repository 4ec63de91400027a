"""Tests for the fat-tree legacy fabric and LiveSec on top of it."""

import pytest

from repro.core.deployment import build_livesec_network
from repro.net.fattree import build_fat_tree
from repro.workloads import CbrUdpFlow

GATEWAY_IP = "10.255.255.254"


class TestConstruction:
    def test_k4_shape(self, sim):
        tree = build_fat_tree(sim, k=4)
        assert len(tree.core) == 4
        assert sum(len(pod) for pod in tree.aggregation) == 8
        assert sum(len(pod) for pod in tree.edge) == 8
        assert len(tree.all_switches()) == 20
        assert len(tree.edge_switches()) == 8

    def test_k2_degenerate(self, sim):
        tree = build_fat_tree(sim, k=2)
        assert len(tree.core) == 1
        assert len(tree.all_switches()) == 1 + 2 + 2

    def test_odd_k_rejected(self, sim):
        with pytest.raises(ValueError):
            build_fat_tree(sim, k=3)

    def test_ecmp_groups_on_uplinks(self, sim):
        tree = build_fat_tree(sim, k=4)
        edge = tree.edge[0][0]
        # Two uplinks (to the two pod aggregation switches), grouped.
        groups = {edge.group_of(p.number) for p in edge.attached_ports()}
        assert any(len(group) == 2 for group in groups)


class TestBroadcastSafety:
    def test_broadcast_reaches_everyone_exactly_once(self, sim):
        """The fat tree has physical loops; group-aware flooding must
        deliver one copy per edge and never melt down."""
        from repro.net import packet as pkt
        from repro.net.host import Host
        from repro.net.node import connect

        tree = build_fat_tree(sim, k=4)
        hosts = []
        copies = {}
        for index, edge in enumerate(tree.edge_switches()):
            host = Host(sim, f"h{index}", pkt.mac_address(index + 1),
                        pkt.ip_address(index + 1))
            connect(sim, edge, host)
            copies[host.name] = 0

            def spy(frame, in_port, host=host, original=host.receive):
                if frame.ethertype == pkt.ETH_TYPE_ARP:
                    copies[host.name] += 1
                original(frame, in_port)

            host.receive = spy
            hosts.append(host)
        sim.run(until=0.5)
        hosts[0].announce()
        sim.run(until=1.5)
        expected = {h.name: 1 for h in hosts[1:]}
        expected[hosts[0].name] = 0
        assert copies == expected


class TestLiveSecOverFatTree:
    def _deploy(self):
        net = build_livesec_network(topology="fattree", k=4,
                                    hosts_per_edge=1)
        net.start()
        return net

    def test_full_mesh_discovered_over_fabric(self):
        net = self._deploy()
        summary = net.controller.nib.summary()
        assert summary["switches"] == 8
        assert summary["full_mesh"], (
            "LLDP must see the logical full mesh through the fat tree"
        )

    def test_cross_pod_traffic_flows(self):
        net = self._deploy()
        src = net.host("h1_1")    # pod 1
        dst = net.host("h8_1")    # pod 4
        flow = CbrUdpFlow(net.sim, src, dst.ip, rate_bps=5e6,
                          duration_s=1.0)
        flow.start()
        net.run(2.5)
        assert flow.delivered_bytes(dst) > 0

    def test_gateway_reachable_from_every_pod(self):
        net = self._deploy()
        flows = []
        for index in (2, 4, 6, 8):
            src = net.host(f"h{index}_1")
            flows.append(CbrUdpFlow(net.sim, src, GATEWAY_IP,
                                    rate_bps=3e6, duration_s=1.0).start())
        net.run(2.5)
        for flow in flows:
            assert flow.delivered_bytes(net.gateway) > 0
