"""E13 (ablation: control-plane cost of reactive flow setup).

The paper's design is deliberately reactive -- every first packet takes
a controller round trip (Section III.C.3), which is also where the
+10% steady-state latency of E5 comes from.  This ablation quantifies
the control plane itself:

* first-packet penalty: RTT of a flow's first exchange (punt +
  FlowMod) vs an established flow's,
* setup throughput: a burst of brand-new flows and the rate at which
  sessions come up,
* state cost: flow entries installed per session, plain vs steered.
"""

import sys

from repro.analysis import format_table
from repro.core.events import EventKind
from repro.workloads import CbrUdpFlow

from common import (
    GATEWAY_IP,
    build_throughput_net,
    collect_metrics,
    ids_chain_policies,
    run_once,
)


def _first_packet_penalty():
    net = build_throughput_net(0, num_as=4)
    host = net.host("h1_1")
    rtts = []
    for index in range(21):
        net.sim.post(index * 0.5, host.ping, GATEWAY_IP)
    net.run(12.0)
    rtts = host.ping_rtts
    first, rest = rtts[0], rtts[1:]
    steady = sum(rest) / len(rest)
    return first * 1e3, steady * 1e3


def _setup_burst(flows_count: int = 200):
    net = build_throughput_net(2, num_as=6)
    hosts = [h for h in net.topology.hosts if h is not net.topology.gateway]
    start = net.sim.now
    flows = []
    for index in range(flows_count):
        host = hosts[index % len(hosts)]
        flow = CbrUdpFlow(net.sim, host, GATEWAY_IP, rate_bps=1e6,
                          sport=30000 + index, max_packets=20)
        flow.start()
        flows.append(flow)
    net.run(5.0)
    starts = net.controller.log.query(kind=EventKind.FLOW_START,
                                      since=start)
    setup_rules = collect_metrics(net).get("controller.flow_setup_rules")
    if not starts:
        return 0.0, 0, setup_rules
    window = max(e.time for e in starts) - start
    rate = len(starts) / window if window > 0 else float("inf")
    return rate, len(starts), setup_rules


def _entries_per_session():
    plain_net = build_throughput_net(0, num_as=4)
    flow = CbrUdpFlow(plain_net.sim, plain_net.host("h1_1"), GATEWAY_IP,
                      rate_bps=1e6, duration_s=0.5)
    flow.start()
    plain_net.run(1.0)
    plain = next(iter(plain_net.controller.sessions)).rules

    steered_net = build_throughput_net(1, num_as=4,
                                       policies=ids_chain_policies())
    flow = CbrUdpFlow(steered_net.sim, steered_net.host("h3_1"), GATEWAY_IP,
                      rate_bps=1e6, duration_s=0.5)
    flow.start()
    steered_net.run(1.0)
    steered = next(iter(steered_net.controller.sessions)).rules
    return len(plain), len(steered)


def test_e13_control_plane_cost(benchmark):
    def experiment():
        first_ms, steady_ms = _first_packet_penalty()
        rate, installed, setup_rules = _setup_burst()
        plain_rules, steered_rules = _entries_per_session()
        return {
            "first_ms": first_ms,
            "steady_ms": steady_ms,
            "rate": rate,
            "installed": installed,
            "setup_rules": setup_rules,
            "plain_rules": plain_rules,
            "steered_rules": steered_rules,
        }

    result = run_once(benchmark, experiment)
    print(file=sys.stderr)
    print(
        format_table(
            ["quantity", "measured"],
            [
                ["first-packet RTT (ms)", round(result["first_ms"], 3)],
                ["established RTT (ms)", round(result["steady_ms"], 3)],
                ["setup penalty",
                 f"{result['first_ms'] / result['steady_ms']:.1f}x"],
                ["burst: sessions installed", result["installed"]],
                ["burst: setup rate (sessions/s)", round(result["rate"], 0)],
                ["burst: rules/setup p50/p99",
                 f"{result['setup_rules'].quantile(50.0):.0f}"
                 f"/{result['setup_rules'].quantile(99.0):.0f}"],
                ["entries per plain session", result["plain_rules"]],
                ["entries per steered session", result["steered_rules"]],
            ],
            title="E13: reactive control-plane cost",
        ),
        file=sys.stderr,
    )
    # Shape: the first packet pays a visible but bounded penalty; the
    # controller absorbs a 200-flow burst; steering adds exactly 4
    # entries (the Section IV.A chain) over the plain 2+2.
    assert result["first_ms"] > 1.2 * result["steady_ms"]
    assert result["first_ms"] < 20 * result["steady_ms"]
    assert result["installed"] == 200
    assert result["rate"] > 100
    # The registry saw every install the event log saw.
    assert result["setup_rules"].count == 200
    assert result["plain_rules"] == 4      # 2 forward + 2 reverse
    assert result["steered_rules"] == 8    # 4 + 4 with one waypoint
