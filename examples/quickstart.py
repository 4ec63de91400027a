#!/usr/bin/env python
"""Quickstart: build a small LiveSec network, steer a flow through an
IDS element, watch an attack get blocked at the ingress switch.

Run with:  python examples/quickstart.py
"""

from repro import Policy, PolicyTable, build_livesec_network
from repro.core.events import EventKind
from repro.core.policy import FlowSelector, PolicyAction
from repro.workloads import AttackWebFlow, HttpFlow

GATEWAY_IP = "10.255.255.254"


def main() -> None:
    # 1. Policy: all Internet-bound traffic must traverse an IDS.
    policies = PolicyTable()
    policies.begin().add(
        Policy(
            name="inspect-internet",
            selector=FlowSelector(dst_ip=GATEWAY_IP),
            action=PolicyAction.CHAIN,
            service_chain=("ids",),
        )
    ).commit()

    # 2. Build: 3 AS switches on one legacy core, two IDS elements.
    net = build_livesec_network(
        topology="linear",
        policies=policies,
        elements=[("ids", 2)],
        num_as=3,
        hosts_per_as=2,
    )
    net.start()
    print("deployment up:", net.status().nib)

    # 3. A well-behaved web flow: steered through the IDS, delivered.
    alice = net.host("h1_1")
    flow = HttpFlow(net.sim, alice, GATEWAY_IP, rate_bps=5e6, duration_s=3.0)
    flow.start()
    net.run(4.0)
    print(f"alice's goodput: {flow.goodput_bps(net.gateway) / 1e6:.1f} Mbps")
    steered = net.controller.log.query(kind=EventKind.FLOW_STEERED)
    print(f"flows steered through elements: {len(steered)}")

    # 4. A malicious web access: detected by the IDS element, reported
    #    to the controller, dropped at the attacker's own switch.
    mallory = net.host("h2_1")
    attack = AttackWebFlow(net.sim, mallory, GATEWAY_IP, rate_bps=2e6,
                           duration_s=4.0)
    attack.start()
    net.run(5.0)

    for event in net.controller.log.query(kind=EventKind.ATTACK_DETECTED):
        print("ATTACK:", event)
    for event in net.controller.log.query(kind=EventKind.FLOW_BLOCKED):
        print("BLOCKED:", event)

    # 5. The live view the WebUI would render.
    print()
    from repro.core.visualization import render_snapshot

    print(render_snapshot(net.monitoring.snapshot()))


if __name__ == "__main__":
    main()
