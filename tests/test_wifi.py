"""Unit tests for the OF Wi-Fi AP shared-medium model."""

import pytest

from repro.net import packet as pkt
from repro.net.host import Host
from repro.net.node import Node, connect
from repro.net.wifi import WIFI_ONE_WAY_DELAY_S, AirMedium, WifiAccessPoint
from repro.openflow import messages as msg
from repro.openflow.actions import Output
from repro.openflow.channel import SecureChannel
from repro.openflow.controller_base import ControllerBase
from repro.openflow.flowtable import FlowEntry
from repro.openflow.match import Match


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append((self.sim.now, frame))


class TestAirMedium:
    def test_reserve_serializes(self):
        medium = AirMedium(bandwidth_bps=1e6)
        done1 = medium.reserve(0.0, 1250)  # 10 ms
        done2 = medium.reserve(0.0, 1250)
        assert done1 == pytest.approx(0.010)
        assert done2 == pytest.approx(0.020)

    def test_reserve_after_idle(self):
        medium = AirMedium(bandwidth_bps=1e6)
        medium.reserve(0.0, 1250)
        done = medium.reserve(5.0, 1250)
        assert done == pytest.approx(5.010)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            AirMedium(bandwidth_bps=0)


class SimpleForwarder(ControllerBase):
    """Installs a static forward-all rule on join (port a -> port b)."""

    def __init__(self, sim, out_port):
        super().__init__(sim, lldp_enabled=False)
        self.out_port = out_port

    def on_switch_join(self, handle):
        self.send_flow_mod(handle.dpid, msg.FlowMod.ADD, Match(),
                           actions=(Output(self.out_port),))


class TestAccessPoint:
    def test_attach_station_wires_wireless_link(self, sim):
        ap = WifiAccessPoint(sim, "ap", dpid=1)
        station = Host(sim, "sta", "00:00:00:00:00:01", "10.0.0.1",
                       wireless=True)
        link = ap.attach_station(station)
        assert link.medium is ap.medium
        assert station.port(1).link is link
        assert ap.stations == [station]

    def test_stations_share_air_capacity(self, sim):
        """Two stations sending flat out split the 43 Mbps air."""
        ap = WifiAccessPoint(sim, "ap", dpid=1, air_bandwidth_bps=10e6)
        uplink_sink = Sink(sim, "uplink")
        connect(sim, ap, uplink_sink, bandwidth_bps=1e9)
        uplink_port = 1 if ap.port(1).is_attached else 2
        ctrl = SimpleForwarder(sim, out_port=uplink_port)
        SecureChannel(sim, ap, ctrl).connect()
        stations = []
        for index in range(2):
            station = Host(sim, f"sta{index}", pkt.mac_address(index + 1),
                           pkt.ip_address(index + 1), wireless=True)
            ap.attach_station(station)
            stations.append(station)
        sim.run(until=0.1)

        # Each station offers 10 Mbps; the shared 10 Mbps air allows
        # only ~10 Mbps total.
        def emit(station, count=200):
            frame = pkt.make_udp(station.mac, "ff:ee:00:00:00:01",
                                 station.ip, "10.9.9.9", 1, 2, size=1250)
            station.send(frame, 1)
            if count > 1:
                sim.schedule(0.001, emit, station, count - 1)

        for station in stations:
            emit(station)
        sim.run(until=2.0)
        # Everything is eventually delivered, but the *pace* is set by
        # the shared 10 Mbps air: 400 x 1250 B = 4 Mbit needs ~0.4 s.
        times = [t for t, __ in uplink_sink.received]
        assert len(times) == 400
        duration = max(times) - min(times)
        rate_bps = 400 * 1250 * 8 / duration
        assert rate_bps <= 10e6 * 1.1
        assert rate_bps >= 10e6 * 0.8

    def test_a_station_claims_the_air_inside_the_forwarding_delay(self, sim):
        """The AP accepts a downlink frame; a station sends 50 us later,
        inside the AP's 100 us forwarding delay.  The station's frame
        reserved the radio first, so it is on the air first and the
        downlink frame serializes behind it -- which is why an AP's
        action stage stays an event of its own."""
        ap = WifiAccessPoint(sim, "ap", dpid=1, air_bandwidth_bps=10e6)
        uplink = Sink(sim, "uplink")
        connect(sim, ap, uplink, port_a=1)
        station = Sink(sim, "sta")
        sta_port = ap.attach_station(station).end_a.number
        ap.table.add(FlowEntry(match=Match(in_port=1),
                               actions=(Output(sta_port),)), sim.now)
        ap.table.add(FlowEntry(match=Match(in_port=sta_port),
                               actions=(Output(1),)), sim.now)
        tx = 1250 * 8 / 10e6  # 1 ms of air per frame
        t0 = 0.01

        def frame():
            return pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 5, 6,
                                size=1250)

        sim.post_at(t0, ap.receive, frame(), 1)
        sim.post_at(t0 + 50e-6, station.send, frame(), 1)
        sim.run(until=0.1)

        station_done = t0 + 50e-6 + tx
        assert ap.medium.frames == 2
        assert [t for t, _ in station.received] == [
            pytest.approx(station_done + tx + WIFI_ONE_WAY_DELAY_S, abs=1e-12)
        ]
        assert len(uplink.received) == 1

    def test_ap_is_openflow_datapath(self, sim):
        ap = WifiAccessPoint(sim, "ap", dpid=42)
        ctrl = SimpleForwarder(sim, out_port=5)
        SecureChannel(sim, ap, ctrl).connect()
        sim.run(until=sim.now + 0.2)
        assert 42 in ctrl.switches
