"""End hosts: the Network-Periphery layer's users and servers.

A host owns one port, an ARP stack (the LiveSec controller learns host
locations from ARP traffic, Section III.C.2), and a tiny application
layer: callbacks keyed by transport port, an automatic ICMP echo
responder (used by the latency evaluation), and per-flow receive
accounting that the analysis layer reads to compute throughput.

Hosts are used for wired users, wireless users (attached behind a
:class:`repro.net.wifi.WifiAccessPoint`), servers, and the Internet
gateway; service elements extend this class in
:mod:`repro.elements.base`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.net import packet as pkt
from repro.net.node import Node
from repro.net.packet import Arp, Ethernet, Icmp, IPv4, Tcp, Udp

# Hosts have a single NIC, always port 1.
HOST_PORT = 1

AppHandler = Callable[["Host", Ethernet], None]


class Host(Node):
    """A layer-2/3 end host with ARP, ICMP echo and app callbacks."""

    def __init__(
        self,
        sim,
        name: str,
        mac: str,
        ip: str,
        wireless: bool = False,
        arp_timeout_s: float = 60.0,
        vlan: Optional[int] = None,
    ):
        super().__init__(sim, name)
        self.mac = mac
        self.ip = ip
        self.wireless = wireless
        # Tenant tag: when set, all emitted IP frames carry this VLAN
        # id, which policies can select on (the paper's multi-tenant
        # "work zones").
        self.vlan = vlan
        self.arp_timeout_s = arp_timeout_s
        self.arp_table: Dict[str, Tuple[str, float]] = {}
        self._arp_pending: Dict[str, List[Ethernet]] = defaultdict(list)
        self._app_handlers: Dict[Tuple[int, int], AppHandler] = {}
        self.default_handler: Optional[AppHandler] = None
        # Receive-side accounting.
        self.rx_frames = 0
        self.rx_bytes = 0
        self.rx_bytes_by_flow: Dict[Optional[int], int] = defaultdict(int)
        self.rx_frames_by_flow: Dict[Optional[int], int] = defaultdict(int)
        # Ping state: ident -> (sent_at, reply_callback)
        self._pings: Dict[int, Tuple[float, Optional[Callable[[float], None]]]] = {}
        self._ping_ident = 0
        self.ping_rtts: List[float] = []

    # ------------------------------------------------------------------
    # Joining the network

    def announce(self) -> None:
        """Send a gratuitous ARP so the network learns our location.

        LiveSec discovers hosts from their first ARP frame; calling
        this after wiring the host models the join event.
        """
        self.send(pkt.make_arp_request(self.mac, self.ip, self.ip), HOST_PORT)

    # ------------------------------------------------------------------
    # Sending

    def resolve_and_send(self, frame: Ethernet, dst_ip: str) -> None:
        """Fill in the destination MAC for ``dst_ip`` (ARPing if
        necessary) and transmit the frame."""
        entry = self.arp_table.get(dst_ip)
        if entry is not None and self.sim.now - entry[1] <= self.arp_timeout_s:
            frame.dst = entry[0]
            self.send(frame, HOST_PORT)
            return
        already_pending = bool(self._arp_pending[dst_ip])
        self._arp_pending[dst_ip].append(frame)
        if not already_pending:
            self._send_arp_request(dst_ip, attempt=1)

    ARP_RETRY_INTERVAL_S = 1.0
    ARP_MAX_ATTEMPTS = 5

    def _send_arp_request(self, dst_ip: str, attempt: int) -> None:
        """Send a who-has and retry while frames are still waiting.

        Real stacks retransmit ARP a few times before declaring the
        destination unreachable; without this, one lost request would
        strand the pending frames forever.
        """
        if not self._arp_pending.get(dst_ip):
            return  # resolved (or abandoned) meanwhile
        if attempt > self.ARP_MAX_ATTEMPTS:
            self._arp_pending.pop(dst_ip, None)  # unreachable: give up
            return
        request = pkt.make_arp_request(self.mac, self.ip, dst_ip)
        self.send(request, HOST_PORT)
        self.sim.post(
            self.ARP_RETRY_INTERVAL_S, self._send_arp_request, dst_ip,
            attempt + 1,
        )

    def send_udp(
        self,
        dst_ip: str,
        sport: int,
        dport: int,
        payload: bytes = b"",
        size: Optional[int] = None,
        flow_id: Optional[int] = None,
    ) -> None:
        """Send one UDP datagram (resolving the destination MAC first)."""
        self.resolve_and_send(pkt.make_udp(
            self.mac, pkt.BROADCAST_MAC, self.ip, dst_ip, sport, dport,
            payload, size, self.vlan, flow_id,
        ), dst_ip)

    def send_tcp(
        self,
        dst_ip: str,
        sport: int,
        dport: int,
        payload: bytes = b"",
        flags: str = "",
        size: Optional[int] = None,
        flow_id: Optional[int] = None,
    ) -> None:
        """Send one TCP segment (resolving the destination MAC first)."""
        self.resolve_and_send(pkt.make_tcp(
            self.mac, pkt.BROADCAST_MAC, self.ip, dst_ip, sport, dport,
            payload, flags, size, self.vlan, flow_id,
        ), dst_ip)

    def ping(
        self, dst_ip: str, on_reply: Optional[Callable[[float], None]] = None
    ) -> int:
        """Send an ICMP echo request; RTTs accumulate in ``ping_rtts``.

        Returns the echo identifier.
        """
        self._ping_ident += 1
        ident = self._ping_ident
        self._pings[ident] = (self.sim.now, on_reply)
        frame = pkt.make_icmp_echo(
            self.mac, pkt.BROADCAST_MAC, self.ip, dst_ip, ident=ident
        )
        self.resolve_and_send(frame, dst_ip)
        return ident

    # ------------------------------------------------------------------
    # Receiving

    def on_app(self, proto: int, port: int, handler: AppHandler) -> None:
        """Register a callback for frames to ``(ip proto, dest port)``."""
        self._app_handlers[(proto, port)] = handler

    def receive(self, frame: Ethernet, in_port: int) -> None:
        ethertype = frame.ethertype
        ip = payload = frame.payload
        if ethertype == pkt.ETH_TYPE_ARP and isinstance(payload, Arp):
            self._handle_arp(payload)
            return
        # Ethernet.ip(), read in place: this runs for every delivery.
        if ethertype != pkt.ETH_TYPE_IP or not isinstance(ip, IPv4) or (
                ip.dst != self.ip and not frame.is_broadcast):
            return
        self.rx_frames += 1
        self.rx_bytes += frame.size
        self.rx_bytes_by_flow[frame.flow_id] += frame.size
        self.rx_frames_by_flow[frame.flow_id] += 1
        segment = ip.payload
        if isinstance(segment, Icmp):
            self._handle_icmp(ip, segment)
            return
        if isinstance(segment, (Tcp, Udp)):
            handler = self._app_handlers.get((ip.proto, segment.dport))
            if handler is not None:
                handler(self, frame)
            elif self.default_handler is not None:
                self.default_handler(self, frame)

    def _handle_arp(self, arp: Arp) -> None:
        if arp.sender_ip != self.ip:
            self.arp_table[arp.sender_ip] = (arp.sender_mac, self.sim.now)
            self._flush_pending(arp.sender_ip, arp.sender_mac)
        if arp.is_request and arp.target_ip == self.ip and arp.sender_ip != self.ip:
            reply = pkt.make_arp_reply(self.mac, self.ip, arp.sender_mac, arp.sender_ip)
            self.send(reply, HOST_PORT)

    def _flush_pending(self, ip: str, mac: str) -> None:
        pending = self._arp_pending.pop(ip, [])
        for frame in pending:
            frame.dst = mac
            self.send(frame, HOST_PORT)

    def _handle_icmp(self, ip: IPv4, icmp: Icmp) -> None:
        if icmp.kind == "echo-request":
            reply = pkt.make_icmp_echo(
                self.mac,
                pkt.BROADCAST_MAC,
                self.ip,
                ip.src,
                kind="echo-reply",
                ident=icmp.ident,
                seq=icmp.seq,
            )
            self.resolve_and_send(reply, ip.src)
        elif icmp.kind == "echo-reply":
            state = self._pings.pop(icmp.ident, None)
            if state is not None:
                sent_at, callback = state
                rtt = self.sim.now - sent_at
                self.ping_rtts.append(rtt)
                if callback is not None:
                    callback(rtt)

    def received_bits(self, flow_id: Optional[int] = None) -> int:
        """Total bits received, optionally for one workload flow."""
        self.sim.settle_fluid()
        if flow_id is None:
            return self.rx_bytes * 8
        return self.rx_bytes_by_flow.get(flow_id, 0) * 8
