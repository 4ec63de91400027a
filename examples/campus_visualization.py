#!/usr/bin/env python
"""The paper's Figure 7 / Figure 8 visualization scenario.

A small campus network (3 OvS + 1 OF Wi-Fi AP, 2 IDS + 2 protocol-
identification elements) with 5 wireless users:

* Figure 7 (normal): 4 users browse the web, 1 uses SSH; traffic is
  light; the logical topology is a full mesh.
* Figure 8 (events): one user leaves; one web user switches to
  BitTorrent (link utilization spikes); one user accesses a malicious
  website, is detected and blocked.

The script renders both moments from the live monitoring view and
then *replays* Figure 7's state from history after Figure 8 already
happened -- the history-replay feature of Section IV.D.

Run with:  python examples/campus_visualization.py
"""

from repro import Policy, PolicyTable, build_livesec_network
from repro.core.policy import FlowSelector, PolicyAction
from repro.core.visualization import render_snapshot
from repro.net.topologies import GATEWAY_IP
from repro.workloads import AttackWebFlow
from repro.workloads.users import UserBehavior


def build():
    policies = PolicyTable()
    policies.begin().add(
        Policy(
            name="identify-apps",
            selector=FlowSelector(dst_ip=GATEWAY_IP),
            action=PolicyAction.CHAIN,
            service_chain=("l7", "ids"),
        )
    ).commit()
    net = build_livesec_network(
        topology="fit",
        policies=policies,
        num_ovs=3,
        num_aps=1,
        wired_users=0,
        wireless_users=5,
        host_timeout_s=8.0,  # so a departed user ages out in-scenario
    )
    # 2 IDS + 2 L7 elements on two different OvS, as in the figures.
    net.add_element("ids", net.topology.as_switches[0])
    net.add_element("ids", net.topology.as_switches[1])
    net.add_element("l7", net.topology.as_switches[0])
    net.add_element("l7", net.topology.as_switches[1])
    net.start()
    return net


def main() -> None:
    net = build()
    users = [
        UserBehavior(net.sim, net.host(f"wifi{i + 1}"), GATEWAY_IP,
                     profile="web" if i < 4 else "ssh", rate_bps=400e3)
        for i in range(5)
    ]
    for user in users:
        user.join()
    net.run(6.0)

    figure7 = net.sim.now
    print("\n--- Figure 7: normal network environment ---")
    print(render_snapshot(net.monitoring.snapshot()))

    # Figure 8 events.
    users[3].leave()                      # one user leaves
    users[0].switch_profile("bittorrent")  # web -> BitTorrent surge
    attacker = users[2]
    AttackWebFlow(net.sim, attacker.host, GATEWAY_IP, rate_bps=1e6,
                  duration_s=5.0).start()
    net.run(16.0)

    print("\n--- Figure 8: user left, BitTorrent surge, attack blocked ---")
    print(render_snapshot(net.monitoring.snapshot()))

    print("\n--- History replay of the Figure 7 moment ---")
    print(render_snapshot(net.monitoring.replay(until=figure7)))

    print("\nevent counts:", net.controller.log.counts_by_kind())


if __name__ == "__main__":
    main()
