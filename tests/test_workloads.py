"""Unit tests for the traffic generators and user behaviours."""

import pytest

from repro import build_livesec_network
from repro.net.host import Host
from repro.net.node import connect
from repro.net.packet import IP_PROTO_TCP, IP_PROTO_UDP
from repro.net.simulator import Simulator
from repro.net.tcp import TcpConnection
from repro.workloads import (
    AttackWebFlow,
    BitTorrentFlow,
    CbrUdpFlow,
    HttpFlow,
    PortScanFlow,
    SshFlow,
    UserBehavior,
    UserChurn,
    VirusDownloadFlow,
)
from repro.workloads.experiments import GATEWAY_IP, gateway_ids_policies


@pytest.fixture
def pair(sim):
    a = Host(sim, "a", "00:00:00:00:00:01", "10.0.0.1")
    b = Host(sim, "b", "00:00:00:00:00:02", "10.0.0.2")
    connect(sim, a, b, bandwidth_bps=1e9, delay_s=1e-5)
    return a, b


class TestPacing:
    def test_rate_is_respected(self, sim, pair):
        a, b = pair
        flow = CbrUdpFlow(sim, a, b.ip, rate_bps=10e6, packet_size=1250,
                          duration_s=1.0)
        flow.start()
        sim.run(until=2.0)
        # 10 Mbps for 1 s at 1250 B = 1000 packets.
        assert flow.packets_sent == pytest.approx(1000, abs=2)
        assert flow.delivered_bytes(b) == pytest.approx(1000 * 1250, rel=0.01)

    def test_duration_stops_flow(self, sim, pair):
        a, b = pair
        flow = CbrUdpFlow(sim, a, b.ip, rate_bps=1e6, duration_s=0.5)
        flow.start()
        sim.run(until=2.0)
        assert not flow.running

    def test_max_packets(self, sim, pair):
        a, b = pair
        flow = CbrUdpFlow(sim, a, b.ip, rate_bps=10e6, max_packets=7)
        flow.start()
        sim.run(until=2.0)
        assert flow.packets_sent == 7

    def test_stop_cancels_emission(self, sim, pair):
        a, b = pair
        flow = CbrUdpFlow(sim, a, b.ip, rate_bps=1e6)
        flow.start()
        sim.run(until=0.1)
        flow.stop()
        sent = flow.packets_sent
        sim.run(until=1.0)
        assert flow.packets_sent == sent

    def test_delayed_start(self, sim, pair):
        a, b = pair
        flow = CbrUdpFlow(sim, a, b.ip, rate_bps=1e6)
        flow.start(delay_s=0.5)
        sim.run(until=0.4)
        assert flow.packets_sent == 0
        sim.run(until=1.0)
        assert flow.packets_sent > 0
        flow.stop()

    def test_double_start_rejected(self, sim, pair):
        a, b = pair
        flow = CbrUdpFlow(sim, a, b.ip)
        flow.start()
        with pytest.raises(RuntimeError):
            flow.start()

    def test_goodput_measurement(self, sim, pair):
        a, b = pair
        flow = CbrUdpFlow(sim, a, b.ip, rate_bps=8e6, duration_s=1.0)
        flow.start()
        sim.run(until=1.0)
        assert flow.goodput_bps(b) == pytest.approx(8e6, rel=0.05)

    def test_flow_ids_unique(self, sim, pair):
        a, b = pair
        flow1 = CbrUdpFlow(sim, a, b.ip)
        flow2 = CbrUdpFlow(sim, a, b.ip)
        assert flow1.flow_id != flow2.flow_id

    def test_invalid_parameters(self, sim, pair):
        a, b = pair
        with pytest.raises(ValueError):
            CbrUdpFlow(sim, a, b.ip, rate_bps=0)
        with pytest.raises(ValueError):
            CbrUdpFlow(sim, a, b.ip, packet_size=0)


class TestPayloadShapes:
    def test_http_first_packet_is_get(self, sim, pair):
        flow = HttpFlow(sim, pair[0], pair[1].ip)
        assert flow.payload_for(0).startswith(b"GET ")
        assert flow.proto == IP_PROTO_TCP
        assert flow.dport == 80

    def test_ssh_banner(self, sim, pair):
        flow = SshFlow(sim, pair[0], pair[1].ip)
        assert flow.payload_for(0).startswith(b"SSH-2.0")
        assert flow.dport == 22

    def test_bittorrent_handshake(self, sim, pair):
        flow = BitTorrentFlow(sim, pair[0], pair[1].ip)
        assert flow.payload_for(0).startswith(b"\x13BitTorrent protocol")
        assert flow.dport == 6881

    def test_attack_flow_turns_malicious(self, sim, pair):
        flow = AttackWebFlow(sim, pair[0], pair[1].ip, attack_after=2)
        assert b"malware" in flow.payload_for(2)
        assert b"malware" not in flow.payload_for(1)

    def test_virus_flow_carries_signature(self, sim, pair):
        flow = VirusDownloadFlow(sim, pair[0], pair[1].ip, infected_packet=1)
        assert b"EICAR" in flow.payload_for(1)

    def test_portscan_sweeps_ports(self, sim, pair):
        a, b = pair
        seen_ports = set()
        b.default_handler = lambda host, frame: seen_ports.add(
            frame.transport().dport)
        flow = PortScanFlow(sim, a, b.ip, ports=20)
        flow.start()
        sim.run(until=5.0)
        assert len(seen_ports) == 20

    def test_udp_flow_uses_udp(self, sim, pair):
        a, b = pair
        received = []
        b.default_handler = lambda host, frame: received.append(frame)
        CbrUdpFlow(sim, a, b.ip, rate_bps=1e6, max_packets=1).start()
        sim.run(until=1.0)
        assert received[0].ip().proto == IP_PROTO_UDP


class TestUserBehavior:
    def test_join_starts_profile_flow(self, sim, pair):
        a, b = pair
        user = UserBehavior(sim, a, b.ip, profile="web")
        user.join()
        sim.run(until=2.0)
        assert user.flows and user.flows[0].packets_sent > 0
        assert isinstance(user.flows[0], HttpFlow)

    def test_switch_profile_replaces_flows(self, sim, pair):
        a, b = pair
        user = UserBehavior(sim, a, b.ip, profile="web")
        user.join()
        sim.run(until=1.0)
        old_flow = user.flows[0]
        user.switch_profile("bittorrent")
        sim.run(until=2.0)
        assert not old_flow.running
        assert isinstance(user.flows[0], BitTorrentFlow)

    def test_leave_stops_everything(self, sim, pair):
        a, b = pair
        user = UserBehavior(sim, a, b.ip)
        user.join()
        sim.run(until=1.0)
        user.leave()
        assert not user.active and user.flows == []

    def test_unknown_profile_rejected(self, sim, pair):
        with pytest.raises(ValueError):
            UserBehavior(sim, pair[0], pair[1].ip, profile="gopher")


class TestChurn:
    def test_join_leave_cycles(self, sim, pair):
        a, b = pair
        user = UserBehavior(sim, a, b.ip)
        churn = UserChurn(sim, [user], mean_session_s=1.0, mean_gap_s=0.5,
                          seed=7)
        churn.start()
        sim.run(until=20.0)
        churn.stop()
        assert churn.joins >= 2
        assert churn.leaves >= 1

    def test_seed_reproducibility(self, sim):
        a1 = Host(sim, "a1", "00:00:00:00:00:11", "10.0.1.1")
        times1, times2 = [], []
        churn1 = UserChurn(sim, [], seed=3)
        churn2 = UserChurn(sim, [], seed=3)
        for __ in range(10):
            times1.append(churn1.rng.random())
            times2.append(churn2.rng.random())
        assert times1 == times2


class TestRunOwnsItsNumbering:
    """Flow ids and ephemeral ports are sequences of the run's
    ``Simulator``: what a run numbers does not depend on what ran
    before it in the process."""

    @staticmethod
    def hashed_run():
        """(sport, flow id) of eight port-less flows on a fresh
        deployment, and where ``HashDispatcher`` -- which hashes the
        source port -- sent each."""
        net = build_livesec_network(
            topology="linear", num_as=2, hosts_per_as=2,
            policies=gateway_ids_policies(), elements=[("ids", 3)],
            dispatcher="hash",
        )
        net.start()
        flows = [
            CbrUdpFlow(net.sim, host, GATEWAY_IP, rate_bps=1e6,
                       max_packets=3).start(0.01 * index)
            for index, host in enumerate(net.topology.user_hosts * 2)
        ]
        net.run(0.5)
        sessions = sorted(net.controller.sessions,
                          key=lambda s: s.flow.tp_src)
        return (
            [(flow.sport, flow.flow_id) for flow in flows],
            [(s.flow.tp_src, s.element_macs) for s in sessions],
        )

    def test_same_numbers_and_hash_picks_whatever_ran_before(self, sim, pair):
        numbers, picks = self.hashed_run()
        assert numbers == [(20000 + i, 1 + i) for i in range(8)]
        assert len(picks) == 8
        assert len({macs for _, macs in picks}) > 1  # the hash spreads
        a, b = pair
        for _ in range(5):  # unrelated flows, on an unrelated run
            CbrUdpFlow(sim, a, b.ip)
        assert self.hashed_run() == (numbers, picks)

    def test_tcp_ports_start_at_40000_on_every_run(self, sim, pair):
        a, b = pair
        first = [TcpConnection.connect(a, b.ip, 80).local_port
                 for _ in range(3)]
        assert first == [40000, 40001, 40002]
        other = Host(Simulator(), "c", "00:00:00:00:00:03", "10.0.0.3")
        assert TcpConnection.connect(other, b.ip, 80).local_port == 40000
