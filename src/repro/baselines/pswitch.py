"""The PLayer / pswitch baseline (Joseph, Tavakoli, Stoica 2008).

The paper's Section II criticizes PLayer on two counts: middleboxes
"have to be correctly wired with the accurate functional interfaces in
pswitches", and pswitches "should be deployed with security
middleboxes respectively for each end-to-end network tenant" -- i.e.
the middlebox serving a flow is the one *physically attached to its
pswitch*, with no network-wide pooling.

The model here: a :class:`PSwitch` is a learning switch that, per its
local policy, detours matching flows through its *locally attached*
middlebox before forwarding.  Under skewed load one pswitch's box
saturates while its neighbours idle -- the contrast the
architecture-comparison bench (E11) quantifies against LiveSec's
global load balancing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.traditional import INSIDE_PORT, InlineMiddlebox
from repro.net.host import Host
from repro.net.legacy import LegacySwitch
from repro.net.node import Node, connect
from repro.net.packet import (
    ETH_TYPE_ARP,
    Ethernet,
    ip_address,
    mac_address,
)
from repro.net.simulator import Simulator

MAC_AGING_S = 300.0


class PSwitch(Node):
    """A policy-aware switch with one locally wired middlebox port.

    IP frames from host ports whose destination matches
    ``steer_dst_ip`` take the detour host-port -> middlebox ->
    onward; everything else is plain learning-switch forwarding.
    The middlebox hangs one-armed off ``middlebox_port``: frames sent
    to it come back on the same port, flagged as processed.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        steer_dst_ip: Optional[str] = None,
    ):
        super().__init__(sim, name)
        self.steer_dst_ip = steer_dst_ip
        self.middlebox_port: Optional[int] = None
        self.host_ports: Set[int] = set()
        self.mac_table: Dict[str, Tuple[int, float]] = {}
        self.steered = 0

    def receive(self, frame: Ethernet, in_port: int) -> None:
        self.mac_table[frame.src] = (in_port, self.sim.now)
        if frame.ethertype == ETH_TYPE_ARP:
            self._forward(frame, in_port)
            return
        came_from_middlebox = in_port == self.middlebox_port
        if came_from_middlebox:
            self._forward(frame, in_port)
            return
        if self._needs_steering(frame, in_port):
            self.steered += 1
            self.send(frame, self.middlebox_port)  # type: ignore[arg-type]
            return
        self._forward(frame, in_port)

    def _needs_steering(self, frame: Ethernet, in_port: int) -> bool:
        if self.middlebox_port is None or in_port not in self.host_ports:
            return False
        ip = frame.ip()
        if ip is None:
            return False
        return self.steer_dst_ip is None or ip.dst == self.steer_dst_ip

    def _forward(self, frame: Ethernet, in_port: int) -> None:
        entry = self.mac_table.get(frame.dst)
        if entry is not None and self.sim.now - entry[1] <= MAC_AGING_S:
            out_port, _ = entry
            if out_port != in_port:
                self.send(frame, out_port)
            return
        for port in self.attached_ports():
            if port.number == in_port or port.number == self.middlebox_port:
                continue
            self.send(frame.clone(), port.number)


class _OneArmedMiddlebox(InlineMiddlebox):
    """An InlineMiddlebox whose traffic re-exits the arm it entered."""

    def _finish(self, frame: Ethernet, in_port: int) -> None:
        self._queue_bytes -= frame.size
        self.processed_packets += 1
        self.processed_bytes += frame.size
        if self._is_malicious(frame):
            self.dropped_malicious += 1
            return
        self.send(frame, in_port)


@dataclass
class PSwitchNetwork:
    """A built PLayer deployment."""

    sim: Simulator
    core: LegacySwitch
    pswitches: List[PSwitch]
    middleboxes: List[InlineMiddlebox]
    hosts: List[Host]
    gateway: Host

    def host(self, name: str) -> Host:
        for host in self.hosts:
            if host.name == name:
                return host
        raise KeyError(name)

    def run(self, duration_s: float) -> None:
        self.sim.run(until=self.sim.now + duration_s)

    def announce_all(self) -> None:
        for host in self.hosts:
            host.announce()
        self.gateway.announce()

    def middlebox_utilizations(self, window_start: float) -> List[float]:
        return [m.utilization(window_start) for m in self.middleboxes]


def build_pswitch_network(
    sim: Optional[Simulator] = None,
    num_pswitches: int = 4,
    hosts_per_pswitch: int = 2,
    middlebox_capacity_bps: float = 500e6,
    host_bandwidth_bps: float = 100e6,
    gateway_ip: str = "10.255.255.254",
) -> PSwitchNetwork:
    """PLayer: per-pswitch middleboxes, statically wired.

    Each pswitch steers gateway-bound IP traffic from its hosts
    through its own middlebox only.
    """
    if sim is None:
        sim = Simulator()
    core = LegacySwitch(sim, "core", bridge_id=1)
    pswitches: List[PSwitch] = []
    middleboxes: List[InlineMiddlebox] = []
    hosts: List[Host] = []
    host_index = 1
    for index in range(num_pswitches):
        pswitch = PSwitch(sim, f"psw{index + 1}", steer_dst_ip=gateway_ip)
        connect(sim, pswitch, core, bandwidth_bps=1e9, delay_s=50e-6)
        middlebox = _OneArmedMiddlebox(
            sim, f"mbox{index + 1}", capacity_bps=middlebox_capacity_bps
        )
        mbox_port = pswitch.next_free_port().number
        connect(sim, pswitch, middlebox, bandwidth_bps=1e9, delay_s=5e-6,
                port_a=mbox_port, port_b=INSIDE_PORT)
        pswitch.middlebox_port = mbox_port
        for _ in range(hosts_per_pswitch):
            host = Host(
                sim, f"h{host_index}",
                mac_address(host_index), ip_address(host_index),
            )
            host_port = pswitch.next_free_port().number
            connect(sim, pswitch, host, bandwidth_bps=host_bandwidth_bps,
                    delay_s=20e-6, port_a=host_port, port_b=1)
            pswitch.host_ports.add(host_port)
            hosts.append(host)
            host_index += 1
        pswitches.append(pswitch)
        middleboxes.append(middlebox)

    gateway = Host(sim, "gateway", "00:00:00:00:ff:fe", gateway_ip)
    connect(sim, core, gateway, bandwidth_bps=1e9, delay_s=20e-6)
    return PSwitchNetwork(
        sim=sim, core=core, pswitches=pswitches, middleboxes=middleboxes,
        hosts=hosts, gateway=gateway,
    )
