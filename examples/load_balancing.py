#!/usr/bin/env python
"""Distributed load balancing over service elements (Section IV.B).

Eight users push HTTP traffic through a pool of four IDS elements
under the paper's minimum-load dispatcher; the script reports each
element's processed share and the real-time load deviation the paper
bounds at 5 % (Section V.B.2), then contrasts it with hash dispatch.

Run with:  python examples/load_balancing.py
"""

from repro import Policy, PolicyTable, build_livesec_network
from repro.core.loadbalance import load_deviation
from repro.core.policy import FlowSelector, PolicyAction
from repro.net.topologies import GATEWAY_IP
from repro.workloads import HttpFlow


def run_with_dispatcher(dispatcher: str) -> None:
    policies = PolicyTable()
    policies.begin().add(
        Policy(
            name="inspect-internet",
            selector=FlowSelector(dst_ip=GATEWAY_IP),
            action=PolicyAction.CHAIN,
            service_chain=("ids",),
        )
    ).commit()
    net = build_livesec_network(
        topology="linear",
        policies=policies,
        dispatcher=dispatcher,
        elements=[("ids", 4)],
        num_as=4,
        hosts_per_as=2,
    )
    net.start()

    flows = []
    for as_index in range(4):
        for h_index in range(2):
            host = net.host(f"h{as_index + 1}_{h_index + 1}")
            flow = HttpFlow(net.sim, host, GATEWAY_IP, rate_bps=8e6,
                            duration_s=8.0)
            flows.append(flow.start())
    net.run(10.0)

    loads = [e.processed_bytes for e in net.elements]
    deviation = load_deviation([float(l) for l in loads])
    print(f"\ndispatcher={dispatcher}")
    for element, processed in zip(net.elements, loads):
        print(f"  {element.name}: {processed / 1e6:8.2f} MB processed")
    print(f"  load deviation: {deviation * 100:.1f}%"
          f"  (paper: <=5% with minimum-load)")


def main() -> None:
    for dispatcher in ("minload", "queuing", "polling", "hash"):
        run_with_dispatcher(dispatcher)


if __name__ == "__main__":
    main()
