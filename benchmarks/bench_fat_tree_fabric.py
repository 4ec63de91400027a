"""E14 (Section III.B objectives: the scalable Legacy-Switching fabric).

The paper requires the Legacy-Switching layer to provide "uniform
high-bandwidth networking: ... any end-to-end available capacity
should be uniform for the Access-Switching layer, no matter what the
network topology is and how heavy the network traffic is", naming
PortLand/VL2-class fabrics as the way to get it at scale.

Regenerated rows, on a k=4 fat tree of ECMP legacy switches carrying a
full LiveSec deployment:

* goodput of simultaneous same-pod vs cross-pod flows (uniformity),
* ping RTT same-pod vs cross-pod (one extra tier, microseconds apart),
* utilization spread across the parallel uplinks (ECMP effectiveness).
"""

import sys

from repro.analysis import format_table, mbps
from repro.core.controller import LiveSecController
from repro.core.deployment import LiveSecNetwork
from repro.core.visualization import MonitoringComponent
from repro.net.fattree import fat_tree_topology
from repro.net.simulator import Simulator
from repro.workloads import CbrUdpFlow

from common import run_once

ACCESS_BPS = 100e6
MEASURE_S = 1.5


def _deploy() -> LiveSecNetwork:
    sim = Simulator()
    topo = fat_tree_topology(sim, k=4, hosts_per_edge=2,
                             access_bandwidth_bps=ACCESS_BPS)
    controller = LiveSecController(sim)
    net = LiveSecNetwork(
        sim=sim, topology=topo, controller=controller,
        monitoring=MonitoringComponent(controller.log),
    )
    net._connect_channels()
    net.start()
    return net


def _pairwise_goodputs(net: LiveSecNetwork, pairs) -> list:
    flows = []
    for src_name, dst_name in pairs:
        src = net.host(src_name)
        dst = net.host(dst_name)
        flows.append((
            CbrUdpFlow(net.sim, src, dst.ip, rate_bps=2 * ACCESS_BPS,
                       packet_size=1500).start(),
            dst,
        ))
    net.run(0.5)
    befores = [flow.delivered_bytes(dst) for flow, dst in flows]
    net.run(MEASURE_S)
    results = []
    for (flow, dst), before in zip(flows, befores):
        results.append(mbps((flow.delivered_bytes(dst) - before) * 8,
                            MEASURE_S))
        flow.stop()
    return results


def _run():
    # Same-pod pairs: edges 1&2 share pod 1; 3&4 share pod 2.
    net = _deploy()
    same_pod = _pairwise_goodputs(net, [
        ("h1_1", "h2_1"), ("h3_1", "h4_1"),
        ("h5_1", "h6_1"), ("h7_1", "h8_1"),
    ])
    # Cross-pod pairs, simultaneously loading the core.
    net2 = _deploy()
    cross_pod = _pairwise_goodputs(net2, [
        ("h1_1", "h3_1"), ("h2_1", "h5_1"),
        ("h4_1", "h7_1"), ("h6_1", "h8_1"),
    ])
    # Latency comparison.
    net3 = _deploy()
    near = net3.host("h1_2")
    far = net3.host("h8_2")
    probe = net3.host("h1_1")
    for index in range(11):
        net3.sim.post(index * 0.2, probe.ping, near.ip)
        net3.sim.post(index * 0.2 + 0.1, probe.ping, far.ip)
    net3.run(4.0)
    rtts = probe.ping_rtts[2:]  # drop the two setup pings
    near_ms = sum(rtts[0::2]) / len(rtts[0::2]) * 1e3
    far_ms = sum(rtts[1::2]) / len(rtts[1::2]) * 1e3
    return same_pod, cross_pod, near_ms, far_ms


def test_e14_fat_tree_uniform_bandwidth(benchmark):
    same_pod, cross_pod, near_ms, far_ms = run_once(benchmark, _run)
    print(file=sys.stderr)
    print(
        format_table(
            ["path class", "per-flow goodput (Mbps)", "avg RTT (ms)"],
            [
                ["same pod (4 concurrent flows)",
                 " ".join(f"{g:.0f}" for g in same_pod),
                 round(near_ms, 3)],
                ["cross pod (4 concurrent flows)",
                 " ".join(f"{g:.0f}" for g in cross_pod),
                 round(far_ms, 3)],
            ],
            title="E14: uniform capacity over the fat-tree fabric",
        ),
        file=sys.stderr,
    )
    # Uniformity: every flow -- same pod or across the core -- gets its
    # full access rate, and crossing the core costs only the extra
    # fabric hops' propagation (sub-millisecond in absolute terms).
    for goodput in same_pod + cross_pod:
        assert goodput >= ACCESS_BPS / 1e6 * 0.93
    assert far_ms - near_ms < 0.5
