"""A NOX-like controller framework.

The paper's LiveSec controller is "developed based on NOX"; this module
provides the NOX role: channel management (switch join/leave), message
dispatch to overridable handlers, convenience senders, and LLDP-based
link discovery (Section III.C.1: "Based on link layer discovery
protocol (LLDP), LiveSec controller can dynamically discover the
logical link between all switches").

The LiveSec application itself lives in :mod:`repro.core.controller`
and subclasses :class:`ControllerBase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net import packet as pkt
from repro.net.packet import Ethernet, Lldp
from repro.openflow import messages as msg
from repro.openflow.actions import Action, Output
from repro.openflow.channel import SecureChannel
from repro.openflow.match import Match

LLDP_INTERVAL_S = 1.0
LINK_TIMEOUT_S = 3.5


@dataclass
class SwitchHandle:
    """The controller's view of one connected datapath."""

    dpid: int
    channel: SecureChannel
    ports: Tuple[int, ...]
    joined_at: float

    @property
    def name(self) -> str:
        return self.channel.switch.name


@dataclass(frozen=True)
class DiscoveredLink:
    """A unidirectional logical link learned from LLDP."""

    src_dpid: int
    src_port: int
    dst_dpid: int
    dst_port: int


class ControllerBase:
    """Event-driven OpenFlow controller skeleton.

    Subclasses override the ``on_*`` handlers.  Topology discovery is
    built in: the controller floods LLDP out of every switch port each
    ``LLDP_INTERVAL_S`` and learns unidirectional links from the
    PacketIns they trigger on peer switches; links not re-confirmed
    within ``LINK_TIMEOUT_S`` are expired.
    """

    def __init__(self, sim, lldp_enabled: bool = True):
        self.sim = sim
        self.switches: Dict[int, SwitchHandle] = {}
        # Keyed by the full (src_dpid, src_port, dst_dpid, dst_port):
        # dual-homed switches legitimately expose several port pairs
        # between the same two datapaths, and every one must be known
        # (periphery classification depends on the complete set).
        self.links: Dict[Tuple[int, int, int, int], Tuple[DiscoveredLink, float]] = {}
        self.lldp_enabled = lldp_enabled
        self.packet_in_count = 0
        if lldp_enabled:
            sim.every(LLDP_INTERVAL_S, self._lldp_round, start=sim.now + 0.01)
            sim.every(LLDP_INTERVAL_S, self._expire_links)

    # ------------------------------------------------------------------
    # Channel lifecycle (called by SecureChannel)

    def _channel_up(self, channel: SecureChannel) -> None:
        features = channel.switch.features()
        handle = SwitchHandle(
            dpid=features.dpid,
            channel=channel,
            ports=features.ports,
            joined_at=self.sim.now,
        )
        self.switches[features.dpid] = handle
        self.on_switch_join(handle)

    def _channel_down(self, channel: SecureChannel) -> None:
        dpid = channel.switch.dpid
        handle = self.switches.pop(dpid, None)
        stale = [key for key, (link, __) in self.links.items()
                 if link.src_dpid == dpid or link.dst_dpid == dpid]
        for key in stale:
            del self.links[key]
        if handle is not None:
            self.on_switch_leave(handle)

    # ------------------------------------------------------------------
    # Message dispatch (called by SecureChannel)

    def _handle_message(self, dpid: int, message: msg.Message) -> None:
        if isinstance(message, msg.PacketIn):
            self.packet_in_count += 1
            if message.frame.ethertype == pkt.ETH_TYPE_LLDP:
                self._handle_lldp_in(message)
                return
            self.on_packet_in(message)
        elif isinstance(message, msg.FlowRemoved):
            self.on_flow_removed(message)
        elif isinstance(message, msg.PortStatsReply):
            self.on_port_stats(message)
        elif isinstance(message, msg.FlowStatsReply):
            self.on_flow_stats(message)
        elif isinstance(message, msg.BarrierReply):
            self.on_barrier_reply(dpid, message.xid)
        elif isinstance(message, msg.PathProofReport):
            self.on_path_proof(message)
        elif isinstance(message, msg.EchoReply):
            pass
        else:
            raise TypeError(f"unhandled message from dpid {dpid}: {message!r}")

    # ------------------------------------------------------------------
    # Handlers for subclasses

    def on_switch_join(self, switch: SwitchHandle) -> None:
        """A datapath connected."""

    def on_switch_leave(self, switch: SwitchHandle) -> None:
        """A datapath disconnected."""

    def on_packet_in(self, event: msg.PacketIn) -> None:
        """A non-LLDP frame was punted to the controller."""

    def on_flow_removed(self, event: msg.FlowRemoved) -> None:
        """A flow entry expired or was deleted."""

    def on_port_stats(self, event: msg.PortStatsReply) -> None:
        """A port-stats reply arrived."""

    def on_flow_stats(self, event: msg.FlowStatsReply) -> None:
        """A flow-stats reply arrived."""

    def on_barrier_reply(self, dpid: int, xid: int) -> None:
        """A BarrierReply arrived: every message sent before the
        matching BarrierRequest has been processed by the datapath."""

    def on_path_proof(self, event: msg.PathProofReport) -> None:
        """An egress switch reported a forwarding-accountability proof."""

    def on_link_discovered(self, link: DiscoveredLink) -> None:
        """A new logical link was learned from LLDP."""

    def on_link_timeout(self, link: DiscoveredLink) -> None:
        """A previously known link stopped being confirmed."""

    # ------------------------------------------------------------------
    # Senders

    def send_flow_mod(
        self,
        dpid: int,
        command: str,
        match: Match,
        actions: Tuple[Action, ...] = (),
        priority: int = 100,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: int = 0,
        send_flow_removed: bool = False,
        buffer_id: Optional[int] = None,
    ) -> None:
        """Send a FlowMod to the given datapath."""
        handle = self.switches[dpid]
        handle.channel.to_switch(
            msg.FlowMod(
                command=command,
                match=match,
                actions=tuple(actions),
                priority=priority,
                idle_timeout=idle_timeout,
                hard_timeout=hard_timeout,
                cookie=cookie,
                send_flow_removed=send_flow_removed,
                buffer_id=buffer_id,
            )
        )

    def send_packet_out(
        self,
        dpid: int,
        actions: Tuple[Action, ...],
        frame: Optional[Ethernet] = None,
        buffer_id: Optional[int] = None,
        in_port: Optional[int] = None,
    ) -> None:
        """Send a PacketOut to the given datapath."""
        handle = self.switches[dpid]
        handle.channel.to_switch(
            msg.PacketOut(
                actions=tuple(actions),
                frame=frame,
                buffer_id=buffer_id,
                in_port=in_port,
            )
        )

    def request_port_stats(self, dpid: int, port: Optional[int] = None) -> None:
        self.switches[dpid].channel.to_switch(msg.PortStatsRequest(port=port))

    def request_flow_stats(self, dpid: int, match: Optional[Match] = None) -> None:
        self.switches[dpid].channel.to_switch(
            msg.FlowStatsRequest(match=match or Match())
        )

    # ------------------------------------------------------------------
    # LLDP topology discovery

    def _lldp_round(self) -> None:
        for dpid, handle in list(self.switches.items()):
            for port in handle.ports:
                frame = pkt.make_lldp(chassis_id=dpid, port_id=port)
                self.send_packet_out(dpid, actions=(Output(port),), frame=frame)

    def _handle_lldp_in(self, event: msg.PacketIn) -> None:
        lldp = event.frame.payload
        if not isinstance(lldp, Lldp):
            return
        if lldp.chassis_id == event.dpid:
            return  # our own advertisement reflected back
        key = (lldp.chassis_id, lldp.port_id, event.dpid, event.in_port)
        known = self.links.get(key)
        if known is not None:  # a re-confirmation: refresh, build nothing
            self.links[key] = (known[0], self.sim.now)
            return
        link = DiscoveredLink(*key)
        self.links[key] = (link, self.sim.now)
        self.on_link_discovered(link)

    def _expire_links(self) -> None:
        now = self.sim.now
        stale = [
            key for key, (_, seen) in self.links.items()
            if now - seen > LINK_TIMEOUT_S
        ]
        for key in stale:
            link, _ = self.links.pop(key)
            self.on_link_timeout(link)

    def known_links(self) -> List[DiscoveredLink]:
        """All currently confirmed unidirectional links."""
        return [link for link, __ in self.links.values()]

    def link_between(self, src_dpid: int, dst_dpid: int) -> Optional[DiscoveredLink]:
        """The discovered link from one datapath to another, if known.

        Dual-homed pairs have several; the lowest port pair is
        returned for determinism.
        """
        matches = [
            link
            for link, __ in self.links.values()
            if link.src_dpid == src_dpid and link.dst_dpid == dst_dpid
        ]
        if not matches:
            return None
        return min(matches, key=lambda l: (l.src_port, l.dst_port))
