"""Packet model: Ethernet frames and the protocols LiveSec cares about.

The model is deliberately faithful to what the LiveSec controller
inspects: layer-2 addresses and EtherType, VLAN tags, the IPv4 header,
TCP/UDP ports, and the first payload bytes (used by the l7-filter style
protocol-identification elements and by the service-element UDP message
channel).  Packets carry an explicit wire ``size`` in bytes so links can
compute serialization delay; payload *content* is a plain ``bytes``
object that need not match ``size`` (benches use large frames with
small representative payloads).  Every header is a slotted dataclass:
a frame is built per emission and read at every hop, so it carries no
per-object ``__dict__`` and a field read is a slot read.  The
per-packet builders (:func:`make_udp`, :func:`make_tcp`,
:meth:`Ethernet.clone`) pass every field positionally, so the declared
field order of each header is part of its interface, and a header
carries no field that nothing reads.

The paper's "9-tuple" (Section III.C.3) is
``(vlan, dl_src, dl_dst, dl_type, nw_src, nw_dst, nw_proto, tp_src,
tp_dst)`` and is extracted by :func:`extract_nine_tuple`.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

# EtherTypes
ETH_TYPE_IP = 0x0800
ETH_TYPE_ARP = 0x0806
ETH_TYPE_LLDP = 0x88CC

# IP protocol numbers
IP_PROTO_ICMP = 1
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17

BROADCAST_MAC = "ff:ff:ff:ff:ff:ff"

# Chassis MACs (LLDP/BPDU sources) live in a locally-administered range
# disjoint from host MACs, so control frames flooded through the legacy
# fabric can never poison its MAC learning of host locations.
SWITCH_MAC_BASE = 0x0200_0000_0000

# Nominal header overheads used for default frame sizing (bytes).
ETH_HEADER_BYTES = 18  # 14 + 4 FCS
IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8


@functools.lru_cache(maxsize=4096)
def mac_address(index: int) -> str:
    """Deterministic MAC address for host/switch number ``index``.

    Memoised: the periodic chatter (every BPDU's and LLDP frame's
    chassis MAC) asks for the same few indices all run long, so each is
    formatted once and every frame shares the one string.  Bounded, so
    a build with more nodes than slots only re-formats the cold ones.

    >>> mac_address(1)
    '00:00:00:00:00:01'
    >>> mac_address(256)
    '00:00:00:00:01:00'
    """
    if not 0 <= index < 2 ** 48:
        raise ValueError(f"MAC index out of range: {index}")
    raw = f"{index:012x}"
    return ":".join(raw[i : i + 2] for i in range(0, 12, 2))


def ip_address(index: int, base: str = "10.0.0.0") -> str:
    """Deterministic IPv4 address ``base + index``.

    >>> ip_address(1)
    '10.0.0.1'
    >>> ip_address(300)
    '10.0.1.44'
    """
    parts = [int(p) for p in base.split(".")]
    value = (parts[0] << 24 | parts[1] << 16 | parts[2] << 8 | parts[3]) + index
    if value >= 2 ** 32:
        raise ValueError(f"IP index out of range: {index}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(slots=True)
class Lldp:
    """Link Layer Discovery Protocol payload used for topology discovery."""

    chassis_id: int  # datapath id of the emitting switch
    port_id: int  # emitting port number


@dataclass(slots=True)
class Arp:
    """ARP request/reply payload."""

    opcode: int  # 1 = request, 2 = reply
    sender_mac: str
    sender_ip: str
    target_mac: str
    target_ip: str

    REQUEST = 1
    REPLY = 2

    @property
    def is_request(self) -> bool:
        return self.opcode == self.REQUEST


@dataclass(slots=True)
class Dhcp:
    """A minimal DHCP exchange payload (DISCOVER/OFFER/REQUEST/ACK)."""

    opcode: str  # "discover" | "offer" | "request" | "ack"
    client_mac: str
    offered_ip: Optional[str] = None


@dataclass(slots=True)
class Icmp:
    """ICMP echo payload, used by the latency evaluation (Section V.B.3)."""

    kind: str  # "echo-request" | "echo-reply"
    ident: int = 0
    seq: int = 0


@dataclass(slots=True)
class Tcp:
    """TCP segment.  ``payload`` holds the first bytes the L7 classifier sees."""

    sport: int
    dport: int
    flags: str = ""  # e.g. "S", "SA", "F", "R", "" for plain data
    seq: int = 0
    payload: bytes = b""
    ack_seq: Optional[int] = None  # cumulative ACK (None = not an ACK)


@dataclass(slots=True)
class Udp:
    """UDP datagram."""

    sport: int
    dport: int
    payload: bytes = b""


@dataclass(slots=True)
class IPv4:
    """IPv4 packet."""

    src: str
    dst: str
    proto: int
    tos: int = 0
    payload: Union[Tcp, Udp, Icmp, None] = None


@dataclass(slots=True)
class Ethernet:
    """An Ethernet frame: the unit every node and link handles.

    ``size`` is the wire size in bytes used for serialization delay and
    throughput accounting.  ``flow_id`` optionally tags the frame with
    the workload flow that emitted it, which the analysis layer uses to
    attribute delivered bytes without re-parsing headers.
    """

    src: str
    dst: str
    ethertype: int
    payload: Union[IPv4, Arp, Lldp, Dhcp, None] = None
    vlan: Optional[int] = None
    size: int = 64
    flow_id: Optional[int] = None
    # Forwarding-accountability tag (SDNsec-style): the ingress switch
    # pushes a per-session path descriptor, every switch on the path
    # appends a keyed mark, the egress strips it and reports the chain.
    # ``None`` for untagged traffic; an immutable PathTag otherwise
    # (stamping replaces the object, so clones may share it safely).
    path_tag: Optional[object] = None

    def clone(self) -> "Ethernet":
        """Deep copy (used when flooding): no header object is shared.

        Positional and hand-rolled: cloning is on the per-packet fast
        path of every flood and multi-port output.
        """
        payload = self.payload
        return Ethernet(
            self.src, self.dst, self.ethertype,
            _clone_payload(payload) if payload is not None else None,
            self.vlan, self.size, self.flow_id, self.path_tag,
        )

    @property
    def is_broadcast(self) -> bool:
        return self.dst == BROADCAST_MAC

    def ip(self) -> Optional[IPv4]:
        """The IPv4 payload, or None if this is not an IP frame."""
        if self.ethertype == ETH_TYPE_IP and isinstance(self.payload, IPv4):
            return self.payload
        return None

    def transport(self) -> Union[Tcp, Udp, Icmp, None]:
        ip = self.ip()
        return ip.payload if ip is not None else None

    def app_payload(self) -> bytes:
        """The first application bytes of the frame (empty if none)."""
        segment = self.transport()
        if isinstance(segment, (Tcp, Udp)):
            return segment.payload
        return b""

    def __repr__(self) -> str:
        proto = type(self.payload).__name__ if self.payload is not None else "raw"
        return f"<Ethernet {self.src}->{self.dst} {proto} {self.size}B>"


def _clone_payload(payload):
    # Every header the model defines is copied by hand, positionally:
    # IPv4/TCP/UDP on every flood of data, LLDP on every flood of the
    # fabric's discovery.  Only a payload type defined elsewhere (the
    # legacy fabric's BPDU) takes the generic shallow copy.
    kind = type(payload)
    if kind is IPv4:
        segment = payload.payload
        return IPv4(
            payload.src, payload.dst, payload.proto, payload.tos,
            _clone_payload(segment) if segment is not None else None,
        )
    if kind is Udp:
        return Udp(payload.sport, payload.dport, payload.payload)
    if kind is Tcp:
        return Tcp(
            payload.sport, payload.dport, payload.flags, payload.seq,
            payload.payload, payload.ack_seq,
        )
    if kind is Lldp:
        return Lldp(payload.chassis_id, payload.port_id)
    if kind is Arp:
        return Arp(
            payload.opcode, payload.sender_mac, payload.sender_ip,
            payload.target_mac, payload.target_ip,
        )
    if kind is Icmp:
        return Icmp(payload.kind, payload.ident, payload.seq)
    if kind is Dhcp:
        return Dhcp(payload.opcode, payload.client_mac, payload.offered_ip)
    return copy.copy(payload)


class FlowNineTuple(NamedTuple):
    """The paper's 9-tuple flow identity (Section III.C.3)."""

    vlan: Optional[int]
    dl_src: str
    dl_dst: str
    dl_type: int
    nw_src: Optional[str]
    nw_dst: Optional[str]
    nw_proto: Optional[int]
    tp_src: Optional[int]
    tp_dst: Optional[int]

    def reversed(self) -> "FlowNineTuple":
        """The 9-tuple of the reply direction of the same session."""
        (vlan, dl_src, dl_dst, dl_type, nw_src, nw_dst, nw_proto,
         tp_src, tp_dst) = self
        return _as_nine_tuple((vlan, dl_dst, dl_src, dl_type, nw_dst,
                               nw_src, nw_proto, tp_dst, tp_src))


# The NamedTuple's generated ``__new__`` is a Python function that
# takes keywords; a frame's 9-tuple is built from a plain tuple in
# field order instead, at C speed.
_as_nine_tuple = functools.partial(tuple.__new__, FlowNineTuple)


def extract_nine_tuple(frame: Ethernet) -> FlowNineTuple:
    """Extract the 9-tuple flow identity from a frame.

    Non-IP frames yield wildcarded (None) network/transport fields; IP
    frames without TCP/UDP yield wildcarded port fields.
    """
    ip = frame.payload  # Ethernet.ip(), read in place
    if frame.ethertype != ETH_TYPE_IP or type(ip) is not IPv4:
        return _as_nine_tuple((frame.vlan, frame.src, frame.dst,
                               frame.ethertype, None, None, None, None,
                               None))
    segment = ip.payload
    if type(segment) is Udp or type(segment) is Tcp:
        return _as_nine_tuple((frame.vlan, frame.src, frame.dst,
                               ETH_TYPE_IP, ip.src, ip.dst, ip.proto,
                               segment.sport, segment.dport))
    return _as_nine_tuple((frame.vlan, frame.src, frame.dst, ETH_TYPE_IP,
                           ip.src, ip.dst, ip.proto, None, None))


def make_udp(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    sport: int,
    dport: int,
    payload: bytes = b"",
    size: Optional[int] = None,
    vlan: Optional[int] = None,
    flow_id: Optional[int] = None,
) -> Ethernet:
    """Convenience constructor for a UDP-over-IP Ethernet frame."""
    if size is None:
        size = (ETH_HEADER_BYTES + IP_HEADER_BYTES + UDP_HEADER_BYTES
                + len(payload))
    return Ethernet(
        src_mac, dst_mac, ETH_TYPE_IP,
        IPv4(src_ip, dst_ip, IP_PROTO_UDP, 0, Udp(sport, dport, payload)),
        vlan, size, flow_id,
    )


def make_tcp(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    sport: int,
    dport: int,
    payload: bytes = b"",
    flags: str = "",
    size: Optional[int] = None,
    vlan: Optional[int] = None,
    flow_id: Optional[int] = None,
) -> Ethernet:
    """Convenience constructor for a TCP-over-IP Ethernet frame."""
    if size is None:
        size = (ETH_HEADER_BYTES + IP_HEADER_BYTES + TCP_HEADER_BYTES
                + len(payload))
    return Ethernet(
        src_mac, dst_mac, ETH_TYPE_IP,
        IPv4(src_ip, dst_ip, IP_PROTO_TCP, 0,
             Tcp(sport, dport, flags, 0, payload)),
        vlan, size, flow_id,
    )


def make_arp_request(sender_mac: str, sender_ip: str, target_ip: str) -> Ethernet:
    """An ARP who-has broadcast frame."""
    return Ethernet(
        src=sender_mac,
        dst=BROADCAST_MAC,
        ethertype=ETH_TYPE_ARP,
        size=64,
        payload=Arp(
            opcode=Arp.REQUEST,
            sender_mac=sender_mac,
            sender_ip=sender_ip,
            target_mac=BROADCAST_MAC,
            target_ip=target_ip,
        ),
    )


def make_arp_reply(
    sender_mac: str, sender_ip: str, target_mac: str, target_ip: str
) -> Ethernet:
    """A unicast ARP is-at reply frame."""
    return Ethernet(
        src=sender_mac,
        dst=target_mac,
        ethertype=ETH_TYPE_ARP,
        size=64,
        payload=Arp(
            opcode=Arp.REPLY,
            sender_mac=sender_mac,
            sender_ip=sender_ip,
            target_mac=target_mac,
            target_ip=target_ip,
        ),
    )


def make_icmp_echo(
    src_mac: str,
    dst_mac: str,
    src_ip: str,
    dst_ip: str,
    kind: str = "echo-request",
    ident: int = 0,
    seq: int = 0,
    size: int = 98,
) -> Ethernet:
    """An ICMP echo frame (the evaluation pings with the default 98B)."""
    return Ethernet(
        src=src_mac,
        dst=dst_mac,
        ethertype=ETH_TYPE_IP,
        size=size,
        payload=IPv4(
            src=src_ip,
            dst=dst_ip,
            proto=IP_PROTO_ICMP,
            payload=Icmp(kind=kind, ident=ident, seq=seq),
        ),
    )


def make_lldp(chassis_id: int, port_id: int) -> Ethernet:
    """An LLDP advertisement frame sent out of switch ``chassis_id``."""
    return Ethernet(
        src=mac_address(SWITCH_MAC_BASE + chassis_id),
        dst="01:80:c2:00:00:0e",
        ethertype=ETH_TYPE_LLDP,
        size=64,
        payload=Lldp(chassis_id=chassis_id, port_id=port_id),
    )
