"""Host tracking: location discovery, directory proxy, announcements.

The paper's Section III.C.2 machinery as one app: ARP frames are both
*location evidence* (learned into the NIB) and *directory queries*
(answered from the NIB instead of flooding the fabric); DHCP is
proxied the same way; silent hosts expire; and the legacy fabric is
taught where MACs live through rate-limited gratuitous-ARP
announcements flooded out of switch uplinks.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import messages as svcmsg
from repro.core.apps.base import App, AppContext
from repro.core.bus import ArpIn, DhcpIn, HostExpired, HostMoved, UplinksLost
from repro.core.events import EventKind
from repro.core.nib import HostRecord
from repro.net import packet as pkt
from repro.net.packet import Ethernet
from repro.openflow.actions import Output

HOST_EXPIRY_INTERVAL_S = 5.0
ANNOUNCE_REFRESH_INTERVAL_S = 60.0
ANNOUNCE_MIN_GAP_S = 0.25


class HostTrackerApp(App):
    """Learns host locations, proxies ARP/DHCP, announces, expires."""

    name = "host-tracker"

    def __init__(self, ctx: AppContext):
        super().__init__(ctx)
        self._last_announce = {}
        self.listen(ArpIn, self.on_arp)
        self.listen(DhcpIn, self.on_dhcp)
        # After the steering app (priority 0) tore the dead-path
        # sessions down: re-teach the legacy fabric over the surviving
        # uplinks.
        self.listen(UplinksLost, self.on_uplinks_lost, priority=10)

    def start(self) -> None:
        self.every(HOST_EXPIRY_INTERVAL_S, self.expire_hosts)
        self.every(ANNOUNCE_REFRESH_INTERVAL_S, self.refresh_announcements)

    # ------------------------------------------------------------------
    # Periphery classification

    def is_periphery_port(self, dpid: int, port: int) -> Optional[bool]:
        """True/False once the switch's uplinks are known, None before.

        A dual-homed AS switch has several Legacy-Switching ports; a
        port is periphery only when it is none of them.
        """
        uplinks = self.ctx.nib.uplink_ports(dpid)
        if not uplinks:
            return None
        return port not in uplinks

    # ------------------------------------------------------------------
    # ARP / location discovery / directory proxy

    def on_arp(self, event: ArpIn) -> None:
        packet_in, arp = event.packet_in, event.arp
        self.ctx.count("arp_in")
        periphery = self.is_periphery_port(packet_in.dpid, packet_in.in_port)
        if periphery:
            self.learn_host(
                mac=arp.sender_mac,
                ip=arp.sender_ip,
                dpid=packet_in.dpid,
                port=packet_in.in_port,
            )
        if not arp.is_request:
            # Unicast reply: deliver to the target if we know where it is.
            target = self.ctx.nib.host_by_mac(arp.target_mac)
            if target is not None:
                self.ctx.controller.send_packet_out(
                    target.dpid, actions=(Output(target.port),),
                    frame=packet_in.frame,
                )
            return
        decision = self.ctx.directory.handle_arp_request(
            arp, target=self.locate(ip=arp.target_ip)
        )
        if decision.action == "reply":
            assert decision.reply_frame is not None
            self.ctx.controller.send_packet_out(
                packet_in.dpid,
                actions=(Output(packet_in.in_port),),
                frame=decision.reply_frame,
            )
        elif decision.action == "flood":
            self.periphery_flood(
                packet_in.frame, exclude=(packet_in.dpid, packet_in.in_port)
            )

    def locate(self, mac: Optional[str] = None,
               ip: Optional[str] = None) -> Optional[HostRecord]:
        """Where a host is, by MAC else by IP: this NIB's row, else --
        as one shard of a fabric -- the row of the shard that owns it,
        read from the fabric's location directory and not copied."""
        nib = self.ctx.nib
        record = nib.host_by_mac(mac) if mac is not None else nib.host_by_ip(ip)
        shard = self.ctx.controller.shard
        if record is None and shard is not None:
            record = shard.coordinator.locate(shard, mac, ip)
        return record

    def learn_host(self, mac: str, ip: Optional[str], dpid: int, port: int,
                   is_element: bool = False) -> HostRecord:
        """Learn-or-refresh one host location; logs join/move events."""
        # Distinguish a genuine join from a move *before* the NIB
        # overwrites the record: inferring the difference from the
        # record's timestamps afterwards mis-labels a host that roams
        # (e.g. wired -> wifi) at the same instant it was first
        # learned, because first_seen == last_seen then looks like a
        # fresh join.
        prior = self.ctx.nib.host_by_mac(mac)
        moved = prior is not None and (prior.dpid != dpid or prior.port != port)
        record, is_new = self.ctx.nib.learn_host(
            mac=mac, ip=ip, dpid=dpid, port=port, now=self.ctx.sim.now,
            is_element=is_element,
        )
        if is_new:
            kind = EventKind.HOST_MOVE if moved else EventKind.HOST_JOIN
            if not record.is_element:
                self.ctx.log.emit(self.ctx.sim.now, kind,
                                  mac=mac, ip=ip, dpid=dpid, port=port)
            if moved:
                self.ctx.bus.publish(HostMoved(record))
            self.announce_host(record)
        return record

    def announce_host(self, record: HostRecord, force: bool = False) -> None:
        """Teach the legacy fabric where this MAC lives by flooding a
        gratuitous ARP out of the host's switch uplink.

        Rate-limited per MAC (announcements are flooded to every AS
        switch, so a feedback loop must never be able to amplify
        them); ``force`` bypasses the limiter for failover refreshes,
        where re-teaching the fabric immediately is the whole point.
        """
        uplink = self.ctx.nib.uplink_port(record.dpid)
        if uplink is None or record.dpid not in self.ctx.controller.switches:
            return
        last = self._last_announce.get(record.mac)
        if not force and last is not None and \
                self.ctx.sim.now - last < ANNOUNCE_MIN_GAP_S:
            return
        self._last_announce[record.mac] = self.ctx.sim.now
        announce = pkt.make_arp_request(
            record.mac, record.ip or "0.0.0.0", record.ip or "0.0.0.0"
        )
        self.ctx.controller.send_packet_out(
            record.dpid, actions=(Output(uplink),), frame=announce
        )

    def refresh_announcements(self, force: bool = False) -> None:
        """Re-announce every known host into the legacy fabric (also
        called once by the deployment after discovery converges)."""
        for record in list(self.ctx.nib.hosts.values()):
            self.announce_host(record, force=force)

    def on_uplinks_lost(self, event: UplinksLost) -> None:
        # The legacy fabric's MAC tables still point hosts at the dead
        # paths; flooding fresh announcements out of the surviving
        # uplinks re-teaches it.
        self.refresh_announcements(force=True)

    def periphery_flood(self, frame: Ethernet,
                        exclude: Tuple[int, int]) -> None:
        """Directory-proxy fallback for unknown ARP targets: deliver a
        copy to every Network-Periphery port, never into the fabric."""
        for dpid, handle in self.ctx.controller.switches.items():
            uplinks = self.ctx.nib.uplink_ports(dpid)
            if not uplinks:
                continue
            outputs = tuple(
                Output(port)
                for port in handle.ports
                if port not in uplinks and (dpid, port) != exclude
            )
            if outputs:
                self.ctx.controller.send_packet_out(
                    dpid, actions=outputs, frame=frame.clone()
                )

    # ------------------------------------------------------------------
    # DHCP proxy

    def on_dhcp(self, event: DhcpIn) -> None:
        packet_in, dhcp = event.packet_in, event.dhcp
        response = self.ctx.directory.handle_dhcp(dhcp)
        if response is None:
            return
        reply = Ethernet(
            src=svcmsg.CONTROLLER_MAC,
            dst=dhcp.client_mac,
            ethertype=0x0800,
            size=300,
            payload=None,
        )
        reply.payload = response  # type: ignore[assignment]
        self.ctx.controller.send_packet_out(
            packet_in.dpid, actions=(Output(packet_in.in_port),), frame=reply
        )

    # ------------------------------------------------------------------
    # Expiry

    def _has_live_session(self, record: HostRecord) -> bool:
        # A host with a live (unblocked) session is demonstrably
        # present even if it has not ARPed lately -- keep it.
        return any(
            not session.blocked
            for session in self.ctx.sessions.sessions_of_user(record.mac)
        )

    def expire_hosts(self) -> None:
        now = self.ctx.sim.now
        for record in self.ctx.nib.expire_hosts(
            now, keep_alive=self._has_live_session
        ):
            if not record.is_element:
                self.ctx.log.emit(
                    now, EventKind.HOST_LEAVE, mac=record.mac, ip=record.ip,
                )
            self.ctx.bus.publish(HostExpired(record))
