"""Topology builders.

These assemble the *physical* substrate -- legacy switches, AS switches
(OvS), OF Wi-Fi APs, hosts, gateway -- and record where every host
attaches.  Wiring the LiveSec controller, secure channels and service
elements on top is done by :mod:`repro.core.deployment`, keeping this
package free of control-plane dependencies.

``fit_building`` reproduces the deployment of the paper's Section V.A
and Figure 6: a redundant Gigabit core of two 24-port legacy switches,
10 OvS in two wiring closets, 20 OF Wi-Fi APs in meeting rooms, wired
and wireless users, and a gateway to the Internet, with ≥100 Mbps
access per user.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.host import Host
from repro.net.legacy import LegacySwitch
from repro.net.node import Node, connect
from repro.net.packet import ip_address, mac_address
from repro.net.simulator import Simulator
from repro.net.wifi import WifiAccessPoint
from repro.openflow.switch import OpenFlowSwitch

GIGABIT = 1e9
FAST_ETHERNET = 100e6
CORE_LINK_DELAY_S = 50e-6
ACCESS_LINK_DELAY_S = 20e-6
# The gateway host's address in every topology: "the Internet" as seen
# from a user, and the destination the canned policies select on.
GATEWAY_IP = "10.255.255.254"


class AddressAllocator:
    """Deterministic MAC/IP allocation for hosts and switches.

    Host indices start at 1; switch chassis MACs use a disjoint high
    range so a dpid never collides with a host MAC.
    """

    SWITCH_BASE = 0x0200_0000_0000

    def __init__(self) -> None:
        self._next_host = 1

    def host_addresses(self) -> Tuple[str, str]:
        index = self._next_host
        self._next_host += 1
        return mac_address(index), ip_address(index)


@dataclass
class Attachment:
    """Where a host is plugged in: which AS switch, which port."""

    host: Host
    switch: Node
    switch_port: int


@dataclass
class Topology:
    """The physical network: nodes, plus the host attachment map."""

    sim: Simulator
    legacy: List[LegacySwitch] = field(default_factory=list)
    as_switches: List[OpenFlowSwitch] = field(default_factory=list)
    aps: List[WifiAccessPoint] = field(default_factory=list)
    hosts: List[Host] = field(default_factory=list)
    gateway: Optional[Host] = None
    attachments: Dict[str, Attachment] = field(default_factory=dict)
    allocator: AddressAllocator = field(default_factory=AddressAllocator)
    _dpids: Dict[str, int] = field(default_factory=dict)

    def all_openflow_switches(self) -> List[OpenFlowSwitch]:
        """Every OpenFlow datapath: AS switches plus Wi-Fi APs."""
        return list(self.as_switches) + list(self.aps)

    @property
    def user_hosts(self) -> List[Host]:
        """Every host but the gateway, in attachment order."""
        return [host for host in self.hosts if host is not self.gateway]

    def host_by_name(self, name: str) -> Host:
        for host in self.hosts:
            if host.name == name:
                return host
        raise KeyError(name)

    # ------------------------------------------------------------------
    # Construction helpers

    def add_legacy_switch(self, name: str, bridge_id: int) -> LegacySwitch:
        switch = LegacySwitch(self.sim, name, bridge_id)
        self.legacy.append(switch)
        return switch

    def add_as_switch(self, name: str, dpid: int,
                      forwarding_delay_s: float = 25e-6) -> OpenFlowSwitch:
        if dpid in self._dpids.values():
            raise ValueError(f"duplicate dpid {dpid}")
        switch = OpenFlowSwitch(self.sim, name, dpid,
                                forwarding_delay_s=forwarding_delay_s)
        self.as_switches.append(switch)
        self._dpids[name] = dpid
        return switch

    def add_ap(self, name: str, dpid: int,
               air_bandwidth_bps: float = 43e6) -> WifiAccessPoint:
        if dpid in self._dpids.values():
            raise ValueError(f"duplicate dpid {dpid}")
        ap = WifiAccessPoint(self.sim, name, dpid,
                             air_bandwidth_bps=air_bandwidth_bps)
        self.aps.append(ap)
        self._dpids[name] = dpid
        return ap

    def add_host(
        self,
        name: str,
        attach_to: Node,
        bandwidth_bps: float = FAST_ETHERNET,
        wireless: bool = False,
        mac: Optional[str] = None,
        ip: Optional[str] = None,
    ) -> Host:
        """Create a host and wire it to an AS switch or AP."""
        if mac is None or ip is None:
            auto_mac, auto_ip = self.allocator.host_addresses()
            mac = mac or auto_mac
            ip = ip or auto_ip
        host = Host(self.sim, name, mac, ip, wireless=wireless)
        if isinstance(attach_to, WifiAccessPoint) and wireless:
            link = attach_to.attach_station(host)
            switch_port = link.end_a.number
        else:
            switch_port = attach_to.next_free_port().number
            host_port = host.next_free_port().number
            connect(
                self.sim,
                attach_to,
                host,
                bandwidth_bps=bandwidth_bps,
                delay_s=ACCESS_LINK_DELAY_S,
                port_a=switch_port,
                port_b=host_port,
            )
        self.hosts.append(host)
        self.attachments[host.name] = Attachment(host, attach_to, switch_port)
        return host

    def wire_core(self, as_switch: Node, core: LegacySwitch,
                  bandwidth_bps: float = GIGABIT) -> None:
        """Uplink an AS switch (or AP) into the legacy core."""
        connect(self.sim, as_switch, core, bandwidth_bps=bandwidth_bps,
                delay_s=CORE_LINK_DELAY_S)

    def move_host(
        self,
        name: str,
        new_switch: Node,
        bandwidth_bps: float = FAST_ETHERNET,
    ) -> Host:
        """Physically re-attach a host (VM migration, Section III.D.1):
        the old access link is unplugged at both ends and a fresh one
        wired to ``new_switch``.  The host must ``announce()`` from the
        new location before the control plane notices the move."""
        attachment = self.attachments[name]
        host = attachment.host
        old_port = attachment.switch.ports[attachment.switch_port]
        host_port = old_port.peer()
        old_port.link = None
        if host_port is not None:
            host_port.link = None
        switch_port = new_switch.next_free_port().number
        connect(
            self.sim,
            new_switch,
            host,
            bandwidth_bps=bandwidth_bps,
            delay_s=ACCESS_LINK_DELAY_S,
            port_a=switch_port,
            port_b=(host_port.number if host_port is not None
                    else host.next_free_port().number),
        )
        self.attachments[name] = Attachment(host, new_switch, switch_port)
        return host


# ---------------------------------------------------------------------------
# Canned topologies


def linear(
    sim: Simulator,
    num_as: int = 2,
    hosts_per_as: int = 1,
    access_bandwidth_bps: float = FAST_ETHERNET,
    core_bandwidth_bps: float = GIGABIT,
    gateway_bandwidth_bps: float = GIGABIT,
    with_gateway: bool = True,
) -> Topology:
    """The smallest interesting LiveSec network: one legacy core switch,
    ``num_as`` OvS, hosts behind each, and an optional gateway on the
    last OvS.  Used heavily by the tests.

    Throughput benches raise ``core_bandwidth_bps`` and
    ``gateway_bandwidth_bps`` so element capacity -- not the fabric --
    is the quantity under test.
    """
    topo = Topology(sim)
    core = topo.add_legacy_switch("core", bridge_id=1)
    for index in range(num_as):
        ovs = topo.add_as_switch(f"ovs{index + 1}", dpid=index + 1)
        topo.wire_core(ovs, core, bandwidth_bps=core_bandwidth_bps)
        for h in range(hosts_per_as):
            topo.add_host(
                f"h{index + 1}_{h + 1}", ovs,
                bandwidth_bps=access_bandwidth_bps,
            )
    if with_gateway:
        gw_switch = topo.as_switches[-1]
        topo.gateway = topo.add_host(
            "gateway", gw_switch, bandwidth_bps=gateway_bandwidth_bps,
            ip=GATEWAY_IP,
        )
    return topo


def star(
    sim: Simulator,
    num_as: int = 4,
    hosts_per_as: int = 2,
    redundant_core: bool = False,
) -> Topology:
    """A star of OvS around one (or two, redundant) legacy cores.

    With ``redundant_core`` every OvS dual-homes into both cores and
    the cores interconnect, exercising STP loop avoidance exactly as
    the paper's Section III.C.1 argues is transparent to LiveSec.
    """
    topo = Topology(sim)
    core_a = topo.add_legacy_switch("core-a", bridge_id=1)
    cores = [core_a]
    if redundant_core:
        core_b = topo.add_legacy_switch("core-b", bridge_id=2)
        connect(sim, core_a, core_b, bandwidth_bps=GIGABIT,
                delay_s=CORE_LINK_DELAY_S)
        cores.append(core_b)
    for index in range(num_as):
        ovs = topo.add_as_switch(f"ovs{index + 1}", dpid=index + 1)
        for core in cores:
            topo.wire_core(ovs, core)
        for h in range(hosts_per_as):
            topo.add_host(f"h{index + 1}_{h + 1}", ovs)
    topo.gateway = topo.add_host(
        "gateway", topo.as_switches[0], bandwidth_bps=GIGABIT,
        ip=GATEWAY_IP,
    )
    return topo


def fit_building(
    sim: Simulator,
    num_ovs: int = 10,
    num_aps: int = 20,
    wired_users: int = 20,
    wireless_users: int = 30,
    user_bandwidth_bps: float = FAST_ETHERNET,
    redundant_core: bool = True,
) -> Topology:
    """The FIT-building deployment of Section V.A / Figure 6.

    10 OvS in two wiring closets, 20 OF Wi-Fi APs in meeting rooms,
    ~50 users, a redundant two-switch Gigabit core, and the building
    gateway.  Service elements (200 VMs, 20 per OvS) are attached by
    :func:`repro.core.deployment.build_livesec_network`, each certified
    by whichever controller (or shard) owns its OvS.
    """
    topo = Topology(sim)
    core_a = topo.add_legacy_switch("core-a", bridge_id=1)
    cores = [core_a]
    if redundant_core:
        core_b = topo.add_legacy_switch("core-b", bridge_id=2)
        connect(sim, core_a, core_b, bandwidth_bps=2 * GIGABIT,
                delay_s=CORE_LINK_DELAY_S)
        cores.append(core_b)

    for index in range(num_ovs):
        ovs = topo.add_as_switch(f"ovs{index + 1}", dpid=index + 1)
        # "All 10 OpenFlow-enabled switches are both connected to the
        # Gigabit backbone ... by two 24-port Gigabit Ethernet switches".
        for core in cores:
            topo.wire_core(ovs, core)

    for index in range(num_aps):
        ap = topo.add_ap(f"ap{index + 1}", dpid=100 + index + 1)
        topo.wire_core(ap, cores[index % len(cores)], bandwidth_bps=FAST_ETHERNET)

    for index in range(wired_users):
        ovs = topo.as_switches[index % max(1, num_ovs)]
        topo.add_host(f"wired{index + 1}", ovs,
                      bandwidth_bps=user_bandwidth_bps)

    for index in range(wireless_users):
        ap = topo.aps[index % max(1, num_aps)]
        topo.add_host(f"wifi{index + 1}", ap, wireless=True)

    topo.gateway = topo.add_host(
        "gateway", topo.as_switches[0], bandwidth_bps=GIGABIT,
        ip=GATEWAY_IP,
    )
    return topo
