"""Unit tests for nodes, ports and capacity-limited links."""

import pytest

from repro import build_livesec_network
from repro.net import packet as pkt
from repro.net.ecmp import EcmpLegacySwitch
from repro.net.host import Host
from repro.net.node import Node, connect
from repro.net.packet import Ethernet
from repro.net.wifi import AirMedium, WirelessLink
from repro.openflow import messages as msg
from repro.workloads.flows import CbrUdpFlow


class Sink(Node):
    """Records every received frame with its arrival time."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append((self.sim.now, frame, in_port))


def frame_of_size(size: int) -> Ethernet:
    return pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2, size=size)


class TestWiring:
    def test_connect_allocates_ports(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = connect(sim, a, b)
        assert a.port(1).link is link and b.port(1).link is link
        assert a.port(1).peer() is b.port(1)

    def test_connect_explicit_ports(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        connect(sim, a, b, port_a=5, port_b=7)
        assert a.port(5).is_attached and b.port(7).is_attached

    def test_double_wiring_rejected(self, sim):
        a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
        connect(sim, a, b, port_a=1)
        with pytest.raises(ValueError):
            connect(sim, a, c, port_a=1)

    def test_next_free_port_skips_attached(self, sim):
        a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
        connect(sim, a, b)
        connect(sim, a, c)
        assert a.port(1).is_attached and a.port(2).is_attached

    def test_send_on_unwired_port_returns_false(self, sim):
        a = Sink(sim, "a")
        assert a.send(frame_of_size(100), 3) is False


class TestDelays:
    def test_propagation_plus_serialization(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        connect(sim, a, b, bandwidth_bps=1e6, delay_s=0.010)
        a.send(frame_of_size(1250), 1)  # 1250 B = 10 kbit -> 10 ms tx
        sim.run()
        arrival, _, _ = b.received[0]
        assert arrival == pytest.approx(0.010 + 0.010)

    def test_back_to_back_frames_serialize(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        connect(sim, a, b, bandwidth_bps=1e6, delay_s=0.0)
        a.send(frame_of_size(1250), 1)
        a.send(frame_of_size(1250), 1)
        sim.run()
        times = [t for t, _, _ in b.received]
        assert times == [pytest.approx(0.010), pytest.approx(0.020)]

    def test_directions_are_independent(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        connect(sim, a, b, bandwidth_bps=1e6, delay_s=0.0)
        a.send(frame_of_size(1250), 1)
        b.send(frame_of_size(1250), 1)
        sim.run()
        assert b.received[0][0] == pytest.approx(0.010)
        assert a.received[0][0] == pytest.approx(0.010)

    def test_throughput_matches_bandwidth(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        connect(sim, a, b, bandwidth_bps=100e6, delay_s=0.0,
                queue_packets=10_000)
        for _ in range(1000):
            a.send(frame_of_size(1500), 1)
        sim.run()
        last_arrival = b.received[-1][0]
        rate = 1000 * 1500 * 8 / last_arrival
        assert rate == pytest.approx(100e6, rel=0.01)


class TestQueueing:
    def test_queue_overflow_drops(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = connect(sim, a, b, bandwidth_bps=1e6, delay_s=0.0,
                       queue_packets=5)
        for _ in range(10):
            a.send(frame_of_size(1250), 1)
        sim.run()
        assert len(b.received) == 5
        assert link.stats(a.port(1))["dropped"] == 5
        assert a.port(1).tx_drops == 5

    def test_queue_drains_over_time(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        connect(sim, a, b, bandwidth_bps=1e6, delay_s=0.0, queue_packets=2)
        a.send(frame_of_size(1250), 1)
        a.send(frame_of_size(1250), 1)
        sim.run()
        a.send(frame_of_size(1250), 1)
        sim.run()
        assert len(b.received) == 3


class TestCountersAndFaults:
    def test_port_counters(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        connect(sim, a, b)
        a.send(frame_of_size(500), 1)
        sim.run()
        assert a.port(1).tx_packets == 1 and a.port(1).tx_bytes == 500
        assert b.port(1).rx_packets == 1 and b.port(1).rx_bytes == 500

    def test_link_down_drops_frames(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = connect(sim, a, b)
        link.set_up(False)
        assert link.transmit(a.port(1), frame_of_size(100)) is False
        sim.run()
        assert b.received == []

    def test_link_down_mid_flight_loses_frame(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = connect(sim, a, b, delay_s=1.0)
        a.send(frame_of_size(100), 1)
        sim.schedule(0.5, link.set_up, False)
        sim.run()
        assert b.received == []

    def test_utilization_tracks_busy_fraction(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = connect(sim, a, b, bandwidth_bps=1e6, delay_s=0.0,
                       queue_packets=100)
        for _ in range(4):  # 4 x 10ms of tx time
            a.send(frame_of_size(1250), 1)
        sim.run(until=0.1)
        assert link.utilization(a.port(1), 0.0) == pytest.approx(0.4)

    def test_flood_skips_in_port_and_clones(self, sim):
        hub = Sink(sim, "hub")
        leaves = [Sink(sim, f"l{i}") for i in range(3)]
        for leaf in leaves:
            connect(sim, hub, leaf)
        original = frame_of_size(100)
        sent = hub.flood(original, in_port=1)
        sim.run()
        assert sent == 2
        assert leaves[0].received == []
        received = [
            frame for leaf in leaves[1:] for _, frame, _ in leaf.received
        ]
        assert len(received) == 2
        assert all(frame is not original for frame in received)
        assert received[0] is not received[1]

    def test_bad_link_parameters_rejected(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        with pytest.raises(ValueError):
            connect(sim, a, b, bandwidth_bps=0)
        with pytest.raises(ValueError):
            connect(sim, a, b, delay_s=-1.0)


def assert_one_tx_counter(nodes):
    """Every port's tx counters are its link direction's (0 unwired)."""
    for node in nodes:
        for port in node.ports.values():
            direction = port.direction
            expected = (0, 0) if direction is None else (
                direction.tx_packets, direction.tx_bytes)
            assert (port.tx_packets, port.tx_bytes) == expected, port


class TestOneTxCounter:
    """What leaves a port is counted once, on its link direction; the
    port's ``tx_packets`` / ``tx_bytes`` read it there."""

    def test_packet_traffic_wired_and_wireless(self, sim):
        a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
        wired = connect(sim, a, b)
        radio = WirelessLink(sim, a.port(2), c.port(1), AirMedium())
        for size in (100, 300, 500):
            a.send(frame_of_size(size), 1)
            a.send(frame_of_size(size), 2)
        c.send(frame_of_size(64), 1)
        sim.run()
        assert_one_tx_counter((a, b, c))
        assert (a.port(1).tx_packets, a.port(1).tx_bytes) == (3, 900)
        assert (a.port(2).tx_packets, c.port(1).tx_bytes) == (3, 64)
        assert wired.stats(a.port(1))["tx_bytes"] == 900
        assert radio.stats(c.port(1))["tx_packets"] == 1
        assert (a.port(7).tx_packets, a.port(7).tx_bytes) == (0, 0)
        with pytest.raises(AttributeError):
            a.port(1).tx_packets = 0

    def test_a_link_down_drop_counts_a_drop_only(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = connect(sim, a, b)
        a.send(frame_of_size(500), 1)
        link.set_up(False)
        a.send(frame_of_size(500), 1)
        sim.run()
        port = a.port(1)
        assert (port.tx_packets, port.tx_bytes, port.tx_drops) == (1, 500, 1)
        assert_one_tx_counter((a, b))

    def test_a_fluid_settle_and_the_port_stats_reply(self):
        net = build_livesec_network("linear", num_as=2, hosts_per_as=2,
                                    fluid=True, stats_interval_s=None)
        net.start()
        src, dst = [h for h in net.topology.hosts
                    if h is not net.topology.gateway][::3]
        CbrUdpFlow(net.sim, src, dst.ip, rate_bps=2e6,
                   packet_size=1000).start()
        switch = net.topology.as_switches[0]
        replies, send = [], switch._reply

        def sending(message):  # a port-stats reply as the switch sends it
            if isinstance(message, msg.PortStatsReply):
                replies.append(message)
            send(message)

        switch._reply = sending

        def poll():
            switch.handle_of_message(msg.PortStatsRequest())
            for number, stats in replies[-1].stats.items():
                port = switch.ports[number]
                assert (stats["tx_packets"], stats["tx_bytes"]) == (
                    port.direction.tx_packets, port.direction.tx_bytes)

        for at in (0.5, 1.2371, 1.9):
            net.sim.schedule(at, poll)
        net.run(2.0)
        assert net.fluid.stats()["suspended_flows"] == 1
        assert net.fluid.stats()["settles"] > 0 and len(replies) == 3
        assert max(stats["tx_packets"]
                   for stats in replies[-1].stats.values()) > 100
        assert_one_tx_counter(net.topology.legacy
                              + net.topology.all_openflow_switches()
                              + net.topology.hosts)

    def test_ecmp_group_port_loads(self, sim):
        s1 = EcmpLegacySwitch(sim, "s1", bridge_id=1)
        s2 = EcmpLegacySwitch(sim, "s2", bridge_id=2)
        connect(sim, s1, s2, port_a=1, port_b=1)
        connect(sim, s1, s2, port_a=2, port_b=2)
        s1.add_ecmp_group([1, 2])
        s2.add_ecmp_group([1, 2])
        h1 = Host(sim, "h1", pkt.mac_address(1), pkt.ip_address(1))
        h2 = Host(sim, "h2", pkt.mac_address(2), pkt.ip_address(2))
        connect(sim, s1, h1, port_a=3)
        connect(sim, s2, h2, port_a=3)
        h2.announce()
        sim.run(until=0.2)
        for sport in range(1000, 1040):
            h1.send_udp(h2.ip, sport, 9000, size=500)
        sim.run(until=1.0)
        loads = s1.group_port_loads([1, 2])
        assert loads == {port: s1.ports[port].direction.tx_bytes
                         for port in (1, 2)}
        assert loads[1] > 0 and loads[2] > 0
        assert_one_tx_counter((s1, s2, h1, h2))
