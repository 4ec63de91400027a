"""Unit tests for the end-host stack: ARP, ICMP echo, app handlers."""

import pytest

from repro.net.host import HOST_PORT, Host
from repro.net.node import connect
from repro.net.packet import IP_PROTO_TCP, IP_PROTO_UDP


@pytest.fixture
def pair(sim):
    """Two hosts wired back to back."""
    a = Host(sim, "a", "00:00:00:00:00:01", "10.0.0.1")
    b = Host(sim, "b", "00:00:00:00:00:02", "10.0.0.2")
    connect(sim, a, b, bandwidth_bps=1e9, delay_s=1e-4)
    return a, b


class TestArp:
    def test_resolution_then_delivery(self, sim, pair):
        a, b = pair
        a.send_udp(b.ip, 1000, 2000, payload=b"hi")
        sim.run()
        assert b.rx_frames == 1
        assert a.arp_table[b.ip][0] == b.mac

    def test_pending_frames_flushed_in_order(self, sim, pair):
        a, b = pair
        for index in range(3):
            a.send_udp(b.ip, 1000, 2000, payload=bytes([index]))
        sim.run()
        assert b.rx_frames == 3

    def test_single_arp_request_for_burst(self, sim, pair):
        a, b = pair
        for _ in range(5):
            a.send_udp(b.ip, 1000, 2000)
        sim.run()
        # 5 data frames + 1 ARP reply received by a; b got 1 request + 5 data
        assert b.port(1).rx_packets == 6

    def test_cached_entry_skips_arp(self, sim, pair):
        a, b = pair
        a.send_udp(b.ip, 1, 2)
        sim.run()
        before = b.port(1).rx_packets
        a.send_udp(b.ip, 1, 2)
        sim.run()
        assert b.port(1).rx_packets == before + 1  # no new ARP

    def test_arp_entry_expires(self, sim, pair):
        a, b = pair
        a.arp_timeout_s = 0.5
        a.send_udp(b.ip, 1, 2)
        sim.run()
        sim.run(until=sim.now + 1.0)
        a.send_udp(b.ip, 1, 2)
        sim.run()
        # The second send must have re-ARPed: b saw 2 requests + 2 data.
        assert b.port(1).rx_packets == 4

    def test_hosts_learn_from_requests(self, sim, pair):
        a, b = pair
        a.send_udp(b.ip, 1, 2)
        sim.run()
        assert b.arp_table[a.ip][0] == a.mac

    def test_announce_is_gratuitous(self, sim, pair):
        a, b = pair
        a.announce()
        sim.run()
        # b learns a but must not reply (it does not own a's IP).
        assert b.arp_table[a.ip][0] == a.mac
        assert a.arp_table.get(b.ip) is None


class TestIcmp:
    def test_ping_round_trip(self, sim, pair):
        a, b = pair
        a.ping(b.ip)
        sim.run()
        assert len(a.ping_rtts) == 1
        assert a.ping_rtts[0] > 0

    def test_ping_callback(self, sim, pair):
        a, b = pair
        seen = []
        a.ping(b.ip, on_reply=seen.append)
        sim.run()
        assert seen == a.ping_rtts

    def test_multiple_pings_tracked_independently(self, sim, pair):
        a, b = pair
        a.ping(b.ip)
        a.ping(b.ip)
        sim.run()
        assert len(a.ping_rtts) == 2


class TestApps:
    def test_handler_by_proto_and_port(self, sim, pair):
        a, b = pair
        got = []
        b.on_app(IP_PROTO_UDP, 2000, lambda host, frame: got.append(frame))
        a.send_udp(b.ip, 1000, 2000, payload=b"data")
        a.send_udp(b.ip, 1000, 3000, payload=b"other")
        sim.run()
        assert len(got) == 1
        assert got[0].app_payload() == b"data"

    def test_default_handler_catches_rest(self, sim, pair):
        a, b = pair
        rest = []
        b.default_handler = lambda host, frame: rest.append(frame)
        a.send_tcp(b.ip, 1, 80)
        sim.run()
        assert len(rest) == 1

    def test_tcp_and_udp_handlers_distinct(self, sim, pair):
        a, b = pair
        tcp_hits, udp_hits = [], []
        b.on_app(IP_PROTO_TCP, 80, lambda h, f: tcp_hits.append(f))
        b.on_app(IP_PROTO_UDP, 80, lambda h, f: udp_hits.append(f))
        a.send_tcp(b.ip, 1, 80)
        a.send_udp(b.ip, 1, 80)
        sim.run()
        assert len(tcp_hits) == 1 and len(udp_hits) == 1


class TestAccounting:
    def test_per_flow_byte_accounting(self, sim, pair):
        a, b = pair
        a.send_udp(b.ip, 1, 2, size=500, flow_id=7)
        a.send_udp(b.ip, 1, 2, size=300, flow_id=7)
        a.send_udp(b.ip, 1, 2, size=100, flow_id=8)
        sim.run()
        assert b.rx_bytes_by_flow[7] == 800
        assert b.rx_bytes_by_flow[8] == 100
        assert b.received_bits(7) == 6400

    def test_frames_counted_per_flow(self, sim, pair):
        a, b = pair
        a.send_udp(b.ip, 1, 2, size=500, flow_id=7)
        a.send_udp(b.ip, 1, 2, size=300, flow_id=7)
        a.send_udp(b.ip, 1, 2, size=100)
        sim.run()
        assert dict(b.rx_frames_by_flow) == {7: 2, None: 1}
        assert (b.rx_frames, b.rx_bytes) == (3, 900)
        assert not hasattr(b, "latencies")

    def test_frames_for_other_ip_ignored(self, sim, pair):
        a, b = pair
        a.send_udp(b.ip, 1, 2)
        sim.run()
        # Craft a frame for a third IP but b's MAC: b must drop it.
        from repro.net import packet as pkt

        stray = pkt.make_udp(a.mac, b.mac, a.ip, "10.0.0.99", 1, 2)
        a.send(stray, HOST_PORT)
        sim.run()
        assert b.rx_frames == 1
