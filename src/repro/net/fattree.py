"""A fat-tree Legacy-Switching fabric (Section III.B).

For networks "of large scale, e.g., with tens of thousands of hosts",
the paper prescribes a scalable layer-2 fabric for the
Legacy-Switching layer and names PortLand and VL2 as candidates.  This
module builds the classic k-ary fat tree those systems run on --
(k/2)^2 core switches, k pods of k/2 aggregation + k/2 edge switches --
out of the ECMP-capable legacy switches, so the Access-Switching layer
gets the "uniform high-bandwidth networking" property the paper asks
for while remaining completely transparent to LiveSec.

Loop handling: within the fat tree, the ECMP switches keep parallel
uplinks active (hash-spread per flow) and pin broadcasts to a single
deterministic tree (lowest-port member of each group + STP for the
rest), which is the moral equivalent of PortLand's fabric-manager-
installed multipath with a broadcast-free core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.net.ecmp import EcmpLegacySwitch
from repro.net.node import connect
from repro.net.simulator import Simulator

GIGABIT = 1e9
FABRIC_DELAY_S = 20e-6


@dataclass
class FatTree:
    """A built k-ary fat tree of legacy switches."""

    k: int
    core: List[EcmpLegacySwitch] = field(default_factory=list)
    aggregation: List[List[EcmpLegacySwitch]] = field(default_factory=list)
    edge: List[List[EcmpLegacySwitch]] = field(default_factory=list)

    def all_switches(self) -> List[EcmpLegacySwitch]:
        switches = list(self.core)
        for pod in range(self.k):
            switches.extend(self.aggregation[pod])
            switches.extend(self.edge[pod])
        return switches

    def edge_switches(self) -> List[EcmpLegacySwitch]:
        """The attachment points for AS switches (one list, pod order)."""
        return [switch for pod in self.edge for switch in pod]

    @property
    def host_ports_per_edge(self) -> int:
        return self.k // 2


def build_fat_tree(
    sim: Simulator,
    k: int = 4,
    link_bandwidth_bps: float = GIGABIT,
) -> FatTree:
    """Build a k-ary fat tree (k even, >= 2).

    Wiring follows the standard construction: edge switch ``e`` in a
    pod uplinks to every aggregation switch of its pod; aggregation
    switch ``a`` of each pod uplinks to core group ``a`` (the cores
    ``a*(k/2) .. a*(k/2)+k/2-1``).  All inter-switch parallelism is
    declared as ECMP port groups per (switch, destination-tier) pair.
    """
    if k < 2 or k % 2:
        raise ValueError(f"k must be even and >= 2 (got {k})")
    half = k // 2
    tree = FatTree(k=k)
    next_bridge = 1000

    def new_switch(name: str) -> EcmpLegacySwitch:
        nonlocal next_bridge
        switch = EcmpLegacySwitch(sim, name, bridge_id=next_bridge)
        next_bridge += 1
        return switch

    tree.core = [new_switch(f"core{i + 1}") for i in range(half * half)]
    for pod in range(k):
        tree.aggregation.append(
            [new_switch(f"agg{pod + 1}_{i + 1}") for i in range(half)]
        )
        tree.edge.append(
            [new_switch(f"edge{pod + 1}_{i + 1}") for i in range(half)]
        )

    for pod in range(k):
        # Edge <-> aggregation: full bipartite within the pod.
        for edge_switch in tree.edge[pod]:
            uplink_ports = []
            for agg_switch in tree.aggregation[pod]:
                edge_port = edge_switch.next_free_port().number
                agg_port = agg_switch.next_free_port().number
                connect(sim, edge_switch, agg_switch,
                        bandwidth_bps=link_bandwidth_bps,
                        delay_s=FABRIC_DELAY_S,
                        port_a=edge_port, port_b=agg_port)
                uplink_ports.append(edge_port)
            if len(uplink_ports) >= 2:
                edge_switch.add_ecmp_group(uplink_ports)
        # Aggregation <-> core.
        for agg_index, agg_switch in enumerate(tree.aggregation[pod]):
            uplink_ports = []
            for core_offset in range(half):
                core_switch = tree.core[agg_index * half + core_offset]
                agg_port = agg_switch.next_free_port().number
                core_port = core_switch.next_free_port().number
                connect(sim, agg_switch, core_switch,
                        bandwidth_bps=link_bandwidth_bps,
                        delay_s=FABRIC_DELAY_S,
                        port_a=agg_port, port_b=core_port)
                uplink_ports.append(agg_port)
            if len(uplink_ports) >= 2:
                agg_switch.add_ecmp_group(uplink_ports)
    return tree


def fat_tree_topology(
    sim: Simulator,
    k: int = 4,
    hosts_per_edge: int = 1,
    access_bandwidth_bps: float = 100e6,
    with_gateway: bool = True,
):
    """A LiveSec topology over a fat-tree legacy fabric.

    One AS switch (OvS) hangs off every edge switch, with
    ``hosts_per_edge`` user hosts behind each; the gateway attaches to
    the first AS switch.  Returns a
    :class:`repro.net.topologies.Topology` (the fat tree's switches are
    exposed through ``topology.legacy``).
    """
    from repro.net.topologies import (
        GATEWAY_IP,
        GIGABIT as TOPO_GIGABIT,
        Topology,
    )

    tree = build_fat_tree(sim, k=k)
    topo = Topology(sim)
    topo.legacy.extend(tree.all_switches())
    for index, edge_switch in enumerate(tree.edge_switches()):
        ovs = topo.add_as_switch(f"ovs{index + 1}", dpid=index + 1)
        connect(sim, ovs, edge_switch, bandwidth_bps=TOPO_GIGABIT,
                delay_s=FABRIC_DELAY_S)
        for h in range(hosts_per_edge):
            topo.add_host(
                f"h{index + 1}_{h + 1}", ovs,
                bandwidth_bps=access_bandwidth_bps,
            )
    if with_gateway:
        topo.gateway = topo.add_host(
            "gateway", topo.as_switches[0], bandwidth_bps=TOPO_GIGABIT,
            ip=GATEWAY_IP,
        )
    return topo
