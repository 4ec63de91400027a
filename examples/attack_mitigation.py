#!/usr/bin/env python
"""End-to-end attack mitigation: full-mesh security coverage.

Unlike a gateway middlebox, LiveSec inspects *east-west* traffic too:
this scenario chains a virus scanner and an IDS on host-to-host
flows inside the network, then shows four attack classes being caught:

1. a SQL-injection attempt against an internal web server,
2. a port scan swept across an internal host,
3. a virus download (EICAR) crossing between work zones,
4. an uncertified rogue "service element" trying to talk to the
   controller, which gets its traffic dropped at its ingress port.

Run with:  python examples/attack_mitigation.py
"""

from repro import Policy, PolicyTable, build_livesec_network
from repro.core.events import EventKind
from repro.core.policy import FlowSelector, PolicyAction
from repro.workloads import HttpFlow, PortScanFlow, VirusDownloadFlow


def main() -> None:
    policies = PolicyTable()
    # East-west coverage: everything between the 10.0.0.0 hosts is
    # chained through virus scanning and intrusion detection.
    policies.begin().add(
        Policy(
            name="east-west-inspection",
            selector=FlowSelector(src_ip_prefix="10.0.", dst_ip_prefix="10.0."),
            action=PolicyAction.CHAIN,
            service_chain=("virus", "ids"),
            priority=100,
        )
    ).commit()
    net = build_livesec_network(
        topology="star",
        policies=policies,
        elements=[("ids", 2), ("virus", 1)],
        num_as=4,
        hosts_per_as=2,
    )
    net.start()

    victim = net.host("h4_2")
    print(f"victim: {victim.name} ({victim.ip})")

    # 1. SQL injection inside the network.
    class SqliFlow(HttpFlow):
        def payload_for(self, index: int) -> bytes:
            if index == 2:
                return b"GET /login?user=' OR '1'='1 HTTP/1.1\r\n\r\n"
            return super().payload_for(index)

    SqliFlow(net.sim, net.host("h1_1"), victim.ip, rate_bps=2e6,
             duration_s=3.0).start()

    # 2. A port scan from another zone.
    PortScanFlow(net.sim, net.host("h2_1"), victim.ip, ports=40).start(0.5)

    # 3. A virus download between work zones.
    VirusDownloadFlow(net.sim, net.host("h3_1"), victim.ip, rate_bps=2e6,
                      duration_s=3.0).start(1.0)

    net.run(6.0)

    # 4. A rogue element without a valid certificate.
    from repro.elements import IntrusionDetectionElement

    rogue = IntrusionDetectionElement(
        net.sim, "rogue", "00:00:00:00:99:99", "10.9.9.9"
    )
    rogue.provision("forged-certificate-0000")
    from repro.net.node import connect

    connect(net.sim, net.topology.as_switches[0], rogue, bandwidth_bps=1e9,
            delay_s=5e-6)
    net.run(3.0)

    print("\ndetections:")
    for event in net.controller.log.query(kind=EventKind.ATTACK_DETECTED):
        print(" ", event)
    print("\nblocked at ingress:")
    for event in net.controller.log.query(kind=EventKind.FLOW_BLOCKED):
        print(" ", event)
    print("\nrejected elements:")
    for event in net.controller.log.query(kind=EventKind.ELEMENT_REJECTED):
        print(" ", event)

    summary = net.controller.status()
    print(
        f"\nflows blocked: {summary.counters['flows_blocked']}"
        f"  sessions live: {summary.sessions}"
        f"  certified elements online: {summary.registry['online']}"
    )


if __name__ == "__main__":
    main()
