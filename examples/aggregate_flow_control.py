#!/usr/bin/env python
"""Aggregate flow control (Section IV.C): per-user rate quotas.

Two users share the network.  Alice has a 10 Mbps aggregate quota and
tries to push 40 Mbps over several parallel flows; Bob has no quota.
The controller aggregates per-user rates from polled flow statistics
and repeatedly penalizes Alice at her own ingress switch (self-expiring
drop entries), while Bob is never touched.

Run with:  python examples/aggregate_flow_control.py
"""

from repro import build_livesec_network
from repro.core.flowcontrol import USER_THROTTLED, AggregateFlowControl
from repro.net.topologies import GATEWAY_IP
from repro.workloads import CbrUdpFlow


def main() -> None:
    net = build_livesec_network(topology="linear", num_as=3, hosts_per_as=1)
    net.start()

    control = AggregateFlowControl(
        net.controller, check_interval_s=0.5, penalty_s=2.0
    )
    alice = net.host("h1_1")
    bob = net.host("h2_1")
    control.set_quota(alice.mac, 10e6)
    print(f"alice quota: 10 Mbps;  bob: unlimited")

    alice_flows = [
        CbrUdpFlow(net.sim, alice, GATEWAY_IP, rate_bps=10e6,
                   sport=21000 + i).start()
        for i in range(4)
    ]
    bob_flow = CbrUdpFlow(net.sim, bob, GATEWAY_IP, rate_bps=40e6).start()

    before = {
        "alice": sum(f.delivered_bytes(net.gateway) for f in alice_flows),
        "bob": bob_flow.delivered_bytes(net.gateway),
    }
    net.run(10.0)
    for flow in alice_flows + [bob_flow]:
        flow.stop()

    alice_mbps = (
        sum(f.delivered_bytes(net.gateway) for f in alice_flows)
        - before["alice"]
    ) * 8 / 10.0 / 1e6
    bob_mbps = (
        bob_flow.delivered_bytes(net.gateway) - before["bob"]
    ) * 8 / 10.0 / 1e6

    print(f"\nalice offered 40 Mbps -> delivered {alice_mbps:.1f} Mbps"
          f" (throttled toward her 10 Mbps quota)")
    print(f"bob   offered 40 Mbps -> delivered {bob_mbps:.1f} Mbps"
          f" (untouched)")
    print(f"throttle events: {control.throttle_events}")
    for event in net.controller.log.query(kind=USER_THROTTLED)[:5]:
        print(" ", event)


if __name__ == "__main__":
    main()
