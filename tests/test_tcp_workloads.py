"""Tests for TCP workloads: goodput, an IDS chain, a blocked connection."""

from repro import Policy, PolicyTable, build_livesec_network
from repro.core.policy import FlowSelector, PolicyAction
from repro.workloads.tcpflows import TcpServer, TcpTransfer

GATEWAY_IP = "10.255.255.254"


class TestTcpWorkloads:
    def test_transfer_completes_with_goodput(self, small_net):
        server = TcpServer(small_net.gateway, port=8080)
        transfer = TcpTransfer(small_net.host("h1_1"), GATEWAY_IP,
                               port=8080, size_bytes=200_000).start()
        small_net.run(20.0)
        assert transfer.complete
        assert server.bytes_received == 200_000
        assert transfer.goodput_bps() > 1e6

    def test_transfer_through_ids_chain(self, steering_net):
        server = TcpServer(steering_net.gateway, port=8080)
        transfer = TcpTransfer(steering_net.host("h1_1"), GATEWAY_IP,
                               port=8080, size_bytes=100_000).start()
        steering_net.run(20.0)
        assert transfer.complete
        assert sum(e.processed_packets for e in steering_net.elements) > 0

    def test_blocked_connection_stalls(self):
        """A TCP connection whose flow the controller drops at the
        ingress must stall: retransmissions go nowhere."""
        policies = PolicyTable()
        policies.add(Policy(
            name="block-8080",
            selector=FlowSelector(dst_ip=GATEWAY_IP, tp_dst=8080),
            action=PolicyAction.DROP,
        ))
        net = build_livesec_network(topology="linear", policies=policies,
                                    num_as=2, hosts_per_as=1)
        net.start()
        server = TcpServer(net.gateway, port=8080)
        transfer = TcpTransfer(net.host("h1_1"), GATEWAY_IP, port=8080,
                               size_bytes=50_000).start()
        net.run(15.0)
        assert not transfer.complete
        assert server.bytes_received == 0
        assert transfer.connection.retransmissions >= 2
