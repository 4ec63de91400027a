"""The Legacy-Switching layer: traditional Ethernet switches.

Per Section III.B of the paper, the legacy layer is plain layer-2
switching: MAC learning, flooding of unknown destinations, and a
distributed spanning-tree protocol so that redundant physical links do
not create forwarding loops.  LiveSec's Access-Switching layer rides on
top of it unchanged, which is exactly how these switches are used here.

The STP implementation is a simplified 802.1D: periodic BPDU hellos,
root election by lowest bridge id, root/designated/blocked port roles
decided by the standard ``(root id, path cost, bridge id, port id)``
priority vector.  It converges in a few hello intervals and reacts to
link failures, which is enough to exercise the paper's claim that
loop-freedom in the legacy fabric is transparent to the AS layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.net import packet as pkt
from repro.net.node import Node
from repro.net.packet import Ethernet

BPDU_MAC = "01:80:c2:00:00:00"
# EtherType stand-in for 802.1D BPDUs (really LLC, but the simulator
# dispatches on ethertype).
ETH_TYPE_BPDU = 0x4242

HELLO_INTERVAL_S = 0.05
BPDU_MAX_AGE_S = 0.25
MAC_AGING_S = 300.0


@dataclass
class Bpdu:
    """Spanning-tree hello: the sender's view of the root."""

    root_id: int
    root_cost: int
    bridge_id: int
    port_id: int


@dataclass
class _PriorityVector:
    """Comparable STP priority vector; lower is better."""

    root_id: int
    root_cost: int
    bridge_id: int
    port_id: int

    def key(self) -> Tuple[int, int, int, int]:
        return (self.root_id, self.root_cost, self.bridge_id, self.port_id)


class LegacySwitch(Node):
    """A traditional learning switch with spanning tree.

    ``bridge_id`` doubles as the STP priority (lower wins the root
    election).  ``flood_lldp`` controls whether LLDP frames are flooded
    like ordinary multicast; LiveSec relies on the legacy fabric
    carrying LLDP between AS switches so the controller can discover
    the logical full mesh, and many commodity switches do flood LLDP,
    so the default is True.
    """

    def __init__(
        self,
        sim,
        name: str,
        bridge_id: int,
        stp_enabled: bool = True,
        flood_lldp: bool = True,
    ):
        super().__init__(sim, name)
        self.bridge_id = bridge_id
        self.stp_enabled = stp_enabled
        self.flood_lldp = flood_lldp
        self.mac_table: Dict[str, Tuple[int, float]] = {}
        # MAC -> repro.net.fluid.ClockShare of the suspended flows whose
        # analytic frames keep it learned here.
        self.fluid_macs: Dict[str, object] = {}
        # STP state.
        self._best_received: Dict[int, Tuple[_PriorityVector, float]] = {}
        self._root_vector = _PriorityVector(bridge_id, 0, bridge_id, 0)
        self._root_port: Optional[int] = None
        if stp_enabled:
            sim.every(
                HELLO_INTERVAL_S,
                self._send_hellos,
                start=sim.now + (bridge_id % 17) * 1e-4,
            )

    # ------------------------------------------------------------------
    # Spanning tree

    def _send_hellos(self) -> None:
        self._recompute_roles()
        for port in self.attached_ports():
            if self._port_role(port.number) != "designated":
                continue
            frame = Ethernet(
                src=pkt.mac_address(pkt.SWITCH_MAC_BASE + self.bridge_id),
                dst=BPDU_MAC,
                ethertype=ETH_TYPE_BPDU,
                size=64,
                payload=None,
            )
            frame.payload = Bpdu(  # type: ignore[assignment]
                root_id=self._root_vector.root_id,
                root_cost=self._root_vector.root_cost,
                bridge_id=self.bridge_id,
                port_id=port.number,
            )
            self.send(frame, port.number)

    def _handle_bpdu(self, bpdu: Bpdu, in_port: int) -> None:
        # Store the vector exactly as advertised.  Root selection adds
        # the link cost; the designated-port comparison must NOT (it
        # compares advertisements on the same segment, per 802.1D).
        received = _PriorityVector(
            bpdu.root_id, bpdu.root_cost, bpdu.bridge_id, bpdu.port_id
        )
        self._best_received[in_port] = (received, self.sim.now)
        self._recompute_roles()

    LINK_COST = 1

    def _recompute_roles(self) -> None:
        now = self.sim.now
        stale = [
            port
            for port, (__, when) in self._best_received.items()
            if now - when > BPDU_MAX_AGE_S
        ]
        for port in stale:
            del self._best_received[port]

        own = _PriorityVector(self.bridge_id, 0, self.bridge_id, 0)
        best = own
        best_port: Optional[int] = None
        for port_number, (advertised, __) in sorted(self._best_received.items()):
            through_port = _PriorityVector(
                advertised.root_id,
                advertised.root_cost + self.LINK_COST,
                advertised.bridge_id,
                advertised.port_id,
            )
            if through_port.key() < best.key():
                best = through_port
                best_port = port_number
        self._root_vector = best
        self._root_port = best_port

    def _port_role(self, port_number: int) -> str:
        """'root', 'designated' or 'blocked' for the given port."""
        if not self.stp_enabled:
            return "designated"
        if port_number == self._root_port:
            return "root"
        received = self._best_received.get(port_number)
        if received is None:
            return "designated"  # edge port: no bridge on the far side
        # Our advertisement on this segment vs the best one heard on
        # it: both are (root, root-path-cost, bridge, port) as sent.
        ours = _PriorityVector(
            self._root_vector.root_id,
            self._root_vector.root_cost,
            self.bridge_id,
            port_number,
        )
        return "designated" if ours.key() < received[0].key() else "blocked"

    def port_is_forwarding(self, port_number: int) -> bool:
        """Whether STP allows data frames on the port."""
        return self._port_role(port_number) != "blocked"

    def spanning_tree_state(self) -> dict:
        """Debug/monitoring snapshot of the STP state."""
        return {
            "bridge_id": self.bridge_id,
            "root_id": self._root_vector.root_id,
            "root_cost": self._root_vector.root_cost,
            "root_port": self._root_port,
            "roles": {
                port.number: self._port_role(port.number)
                for port in self.attached_ports()
            },
        }

    # ------------------------------------------------------------------
    # Data plane

    def receive(self, frame: Ethernet, in_port: int) -> None:
        if frame.ethertype == ETH_TYPE_BPDU:
            if self.stp_enabled and isinstance(frame.payload, Bpdu):
                self._handle_bpdu(frame.payload, in_port)
            return
        if not self.port_is_forwarding(in_port):
            return
        if frame.ethertype == pkt.ETH_TYPE_LLDP and not self.flood_lldp:
            return

        self.mac_table[frame.src] = (in_port, self.sim.now)

        entry = self.mac_table.get(frame.dst)
        if entry is not None and (
            self.sim.now - entry[1] <= MAC_AGING_S
            or self._refreshed_by_fluid(frame.dst)
        ):
            out_port, _ = entry
            if out_port != in_port and self.port_is_forwarding(out_port):
                self.send(frame, out_port)
            return
        self._flood_forwarding(frame, in_port)

    def peek_forward(self, frame: Ethernet, in_port: int) -> Optional[int]:
        """The port :meth:`receive` would forward ``frame`` to, with no
        side effects (no MAC learning, nothing sent).

        Returns ``None`` when the frame would be dropped, flooded, or
        hairpinned -- cases the fluid fast-forward kernel refuses to
        model analytically.
        """
        if frame.ethertype == ETH_TYPE_BPDU:
            return None
        if not self.port_is_forwarding(in_port):
            return None
        entry = self.mac_table.get(frame.dst)
        if entry is None or (
            self.sim.now - entry[1] > MAC_AGING_S
            and not self._refreshed_by_fluid(frame.dst)
        ):
            return None
        out_port, _ = entry
        if out_port == in_port or not self.port_is_forwarding(out_port):
            return None
        return out_port

    def _refreshed_by_fluid(self, mac: str) -> bool:
        """Whether a suspended flow's analytic frames have kept ``mac``
        learned; asked only when its stored refresh time has aged out
        (nothing writes that time while the flow is suspended)."""
        share = self.fluid_macs.get(mac)
        now = self.sim.now
        return share is not None and now - share.latest(now) <= MAC_AGING_S

    def _flood_forwarding(self, frame: Ethernet, in_port: int) -> None:
        for port in self.attached_ports():
            if port.number == in_port:
                continue
            if not self.port_is_forwarding(port.number):
                continue
            self.send(frame.clone(), port.number)
