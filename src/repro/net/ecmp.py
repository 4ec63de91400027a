"""ECMP-capable legacy switching (Section III.C.1).

The paper notes that loop handling in the Legacy-Switching layer can
come from "the spanning tree protocol (STP) or ECMP": instead of
blocking redundant links, Equal-Cost Multi-Path keeps parallel links
active and spreads flows across them by hashing the flow identity.

:class:`EcmpLegacySwitch` extends the learning switch with *port
groups*: parallel ports declared equivalent (same peer or equal-cost
paths to it).  Known-unicast frames pick a group member by flow hash
-- deterministic per flow, so packet order within a flow is preserved
-- while broadcast/flooded frames use only the group's lowest port
(the "broadcast tree"), which keeps redundant parallel links from
duplicating broadcasts.

This models the common enterprise case of aggregated/parallel trunks
between two switches.  For redundant paths through *different*
switches, plain STP (the default legacy switch) remains the right
model, exactly as the paper's deployment used.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Sequence, Tuple

from repro.net import packet as pkt
from repro.net.legacy import LegacySwitch
from repro.net.packet import Ethernet, extract_nine_tuple


class EcmpLegacySwitch(LegacySwitch):
    """A learning switch with ECMP port groups instead of blocking.

    STP stays available for the non-grouped ports; grouped ports are
    expected to be parallel links where STP would otherwise block all
    but one.
    """

    def __init__(self, sim, name: str, bridge_id: int,
                 stp_enabled: bool = False, flood_lldp: bool = True):
        super().__init__(sim, name, bridge_id, stp_enabled=stp_enabled,
                         flood_lldp=flood_lldp)
        # port -> tuple of group member ports (every member maps to the
        # same tuple).
        self._groups: Dict[int, Tuple[int, ...]] = {}
        self.ecmp_balanced = 0

    # ------------------------------------------------------------------
    # Configuration

    def add_ecmp_group(self, ports: Sequence[int]) -> None:
        """Declare a set of ports as equal-cost parallel links."""
        members = tuple(sorted(set(ports)))
        if len(members) < 2:
            raise ValueError(f"an ECMP group needs >= 2 ports, got {members}")
        for port in members:
            if port in self._groups:
                raise ValueError(f"port {port} already in an ECMP group")
        for port in members:
            self._groups[port] = members

    def group_of(self, port: int) -> Tuple[int, ...]:
        return self._groups.get(port, (port,))

    # ------------------------------------------------------------------
    # Forwarding overrides

    def receive(self, frame: Ethernet, in_port: int) -> None:
        # Frames arriving on any member of a group count as the same
        # logical port for learning (otherwise the MAC table flaps
        # between parallel links).
        canonical = self.group_of(in_port)[0]
        super().receive(frame, canonical if in_port in self._groups
                        else in_port)

    def send(self, frame: Ethernet, out_port: int) -> bool:
        group = self._groups.get(out_port)
        if group is None:
            return super().send(frame, out_port)
        if frame.is_broadcast or frame.ethertype == pkt.ETH_TYPE_LLDP:
            # Broadcast tree: exactly one member carries floods.
            return super().send(frame, group[0])
        chosen = self._pick_member(frame, group)
        if chosen != group[0]:
            self.ecmp_balanced += 1
        return super().send(frame, chosen)

    def peek_forward(self, frame: Ethernet, in_port: int):
        # Mirror receive()/send(): canonicalize the ingress group for
        # the MAC lookup, then resolve the stored port through its
        # group's flow hash -- still side-effect free.
        canonical = self.group_of(in_port)[0] if in_port in self._groups \
            else in_port
        out = super().peek_forward(frame, canonical)
        if out is None:
            return None
        group = self._groups.get(out)
        if group is None:
            return out
        return self._pick_member(frame, group)

    def _pick_member(self, frame: Ethernet, group: Tuple[int, ...]) -> int:
        nine = extract_nine_tuple(frame)
        key = "|".join(str(field) for field in nine).encode()
        return group[zlib.crc32(key) % len(group)]

    def _flood_forwarding(self, frame: Ethernet, in_port: int) -> None:
        # A group is ONE logical port for flooding: never flood back
        # out any member of the ingress group (that would loop through
        # the parallel links), and emit at most one copy per group.
        skip = set(self.group_of(in_port))
        emitted_groups = set()
        for port in self.attached_ports():
            if port.number in skip:
                continue
            group = self.group_of(port.number)
            if group in emitted_groups:
                continue
            emitted_groups.add(group)
            if not self.port_is_forwarding(port.number):
                continue
            self.send(frame.clone(), port.number)

    # ------------------------------------------------------------------
    # Introspection

    def group_port_loads(self, group_ports: Iterable[int]) -> Dict[int, int]:
        """tx_bytes per member of a group (for balance inspection)."""
        self.sim.settle_fluid()
        return {
            port: self.ports[port].tx_bytes
            for port in group_ports
            if port in self.ports
        }
