#!/usr/bin/env python
"""LiveSec over a data-center fat-tree fabric, with real TCP.

Section III.B says the Legacy-Switching layer can be a PortLand/VL2-
class fabric for "elastic scale from 1 host to 100,000".  This example
runs the full LiveSec stack over a k=4 fat tree of ECMP legacy
switches with the control plane split per pod -- four controller
shards, one a pod -- pushes reliable TCP transfers across pods (so
across shards) through an IDS service chain, and prints per-flow
goodput plus the fabric's parallel-uplink load split.

Run with:  python examples/datacenter_fabric.py
"""

from repro import Policy, PolicyTable
from repro.analysis.ascii_charts import bar_chart
from repro.core.deployment import build_sharded_network
from repro.core.policy import FlowSelector, PolicyAction
from repro.workloads.tcpflows import TcpServer, TcpTransfer


def east_west_policies() -> PolicyTable:
    """Every shard's own copy of the one policy."""
    policies = PolicyTable()
    policies.begin().add(Policy(
        name="east-west-ids",
        selector=FlowSelector(src_ip_prefix="10.0.", dst_ip_prefix="10.0."),
        action=PolicyAction.CHAIN,
        service_chain=("ids",),
    )).commit()
    return policies


def main() -> None:
    net = build_sharded_network(
        num_shards=4, topology="fattree", policies=east_west_policies,
        k=4, hosts_per_edge=2, access_bandwidth_bps=1e9,
    )
    topo = net.topology
    # Two IDS elements in different pods.
    net.add_element("ids", topo.as_switches[0])
    net.add_element("ids", topo.as_switches[5])
    net.start()
    print("fabric up:", net.controller.status().nib)  # shard 0's view

    # Cross-pod TCP transfers through the IDS chain.
    server = TcpServer(net.host("h8_2"), port=9000)
    transfers = [
        TcpTransfer(net.host(f"h{index}_1"), net.host("h8_2").ip,
                    port=9000, size_bytes=3_000_000).start(0.1 * index)
        for index in (1, 3, 5, 7)
    ]
    net.run(20.0)

    print(f"\nserver received {server.bytes_received / 1e6:.1f} MB over"
          f" {server.connections_seen} cross-pod connections")
    goodputs = {
        f"pod{1 + (index - 1) // 2} sender": (t.goodput_bps() or 0) / 1e6
        for index, t in zip((1, 3, 5, 7), transfers)
    }
    print(bar_chart({k: round(v, 1) for k, v in goodputs.items()},
                    unit=" Mbps"))

    ids_shares = {
        element.name: element.processed_packets for element in net.elements
    }
    print("\nIDS element shares (packets):")
    print(bar_chart(ids_shares))

    # The parallel uplinks of one edge switch: ECMP spreads flows.
    edge = topo.legacy[-8]  # an edge switch
    from repro.net.ecmp import EcmpLegacySwitch

    if isinstance(edge, EcmpLegacySwitch):
        grouped_ports = [p.number for p in edge.attached_ports()
                         if len(edge.group_of(p.number)) > 1]
        if grouped_ports:
            loads = edge.group_port_loads(grouped_ports)
            print(f"\n{edge.name} parallel uplinks (bytes):")
            print(bar_chart({f"port {p}": float(v)
                             for p, v in loads.items()}))


if __name__ == "__main__":
    main()
