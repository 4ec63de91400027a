"""Shared helpers for the benchmark harness.

Every bench file regenerates one experiment from DESIGN.md's index
(E1..E12), prints the same rows the paper reports, and asserts the
*shape* of the result (who wins, by roughly what factor) rather than
absolute numbers -- the substrate is a simulator, not the authors'
testbed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import Policy, PolicyTable, build_livesec_network
from repro.core.deployment import LiveSecNetwork
from repro.core.policy import FlowSelector, Granularity, PolicyAction

GATEWAY_IP = "10.255.255.254"


def ids_chain_policies(
    granularity: Granularity = Granularity.FLOW,
    chain: Tuple[str, ...] = ("ids",),
) -> PolicyTable:
    """The canonical 'Internet traffic traverses security' policy."""
    table = PolicyTable()
    table.add(
        Policy(
            name="inspect-internet",
            selector=FlowSelector(dst_ip=GATEWAY_IP),
            action=PolicyAction.CHAIN,
            service_chain=chain,
            granularity=granularity,
        )
    )
    return table


def build_throughput_net(
    num_elements: int,
    element_type: str = "ids",
    num_as: int = 6,
    policies: Optional[PolicyTable] = None,
    dispatcher: str = "minload",
    bypass: bool = False,
    hosts_per_as: int = 2,
) -> LiveSecNetwork:
    """A linear deployment tuned for throughput runs: gigabit hosts,
    elements spread over the first switches, senders on the rest."""
    net = build_livesec_network(
        topology="linear",
        policies=policies if policies is not None else ids_chain_policies(),
        dispatcher=dispatcher,
        num_as=num_as,
        hosts_per_as=hosts_per_as,
        access_bandwidth_bps=1e9,
        # The quantity under test is element capacity: a 10G fabric and
        # gateway keep the substrate out of the way (the deployment's
        # per-OvS Gigabit ceiling is modelled separately in E3).
        core_bandwidth_bps=10e9,
        gateway_bandwidth_bps=10e9,
    )
    for index in range(num_elements):
        switch = net.topology.as_switches[index % max(1, num_as - 2)]
        net.add_element(element_type, switch, bypass=bypass)
    net.start()
    return net


def senders_for(net: LiveSecNetwork, count: int,
                avoid_element_switches: bool = True) -> List:
    """Pick sender hosts, preferring switches without elements."""
    element_dpids = set()
    if avoid_element_switches:
        for element in net.elements:
            record = net.controller.nib.host_by_mac(element.mac)
            if record is not None:
                element_dpids.add(record.dpid)
    preferred, fallback = [], []
    for host in net.topology.hosts:
        if host is net.topology.gateway:
            continue
        attachment = net.topology.attachments[host.name]
        dpid = getattr(attachment.switch, "dpid", None)
        (fallback if dpid in element_dpids else preferred).append(host)
    chosen = (preferred + fallback)[:count]
    if len(chosen) < count:
        raise ValueError(f"only {len(chosen)} hosts available, need {count}")
    return chosen


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def collect_metrics(net):
    """The observability snapshot of any built network, LiveSec or
    baseline, so every bench can report through identical machinery.

    A LiveSec deployment, one controller or sharded, answers
    ``metrics_snapshot()`` itself; the traditional and pswitch
    baselines get a registry attached on first use.
    """
    from repro.obs import MetricsRegistry

    if hasattr(net, "metrics_snapshot"):
        return net.metrics_snapshot()
    if getattr(net, "metrics", None) is None:
        net.attach_metrics(MetricsRegistry())
    return net.metrics.snapshot()
