"""The OpenFlow controller/switch protocol messages.

Only the messages LiveSec uses are modelled; they are plain dataclasses
exchanged over :class:`repro.openflow.channel.SecureChannel` rather
than serialized wire bytes, but the fields mirror OpenFlow 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.net.packet import Ethernet
from repro.openflow.actions import Action
from repro.openflow.match import Match


class Message:
    """Marker base class for protocol messages.

    Messages are built per FlowMod, PacketIn and barrier, so every one
    is a slotted dataclass; the empty ``__slots__`` here keeps the base
    from adding a ``__dict__`` back."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Switch -> controller


@dataclass(slots=True)
class Hello(Message):
    """Version negotiation, sent on channel establishment."""

    version: int = 1


@dataclass(slots=True)
class FeaturesReply(Message):
    """The switch's datapath id and port inventory."""

    dpid: int
    ports: Tuple[int, ...] = ()


@dataclass(slots=True)
class PacketIn(Message):
    """A frame punted to the controller (table miss or explicit send).

    The switch keeps the original frame in its buffer under
    ``buffer_id``; a later PacketOut referencing the id releases it.
    """

    dpid: int
    in_port: int
    frame: Ethernet
    buffer_id: Optional[int] = None
    reason: str = "no_match"  # "no_match" | "action"


@dataclass(slots=True)
class FlowRemoved(Message):
    """Notification that a flow entry expired (idle/hard) or was deleted."""

    dpid: int
    match: Match
    priority: int
    cookie: int
    reason: str  # "idle" | "hard" | "delete"
    duration_s: float
    packets: int
    bytes: int


@dataclass(slots=True)
class PortStatsReply(Message):
    """Per-port counters, keyed by port number."""

    dpid: int
    stats: Dict[int, Dict[str, int]] = field(default_factory=dict)


@dataclass(slots=True)
class FlowStatsReply(Message):
    """Per-entry counters for entries covered by the requested match."""

    dpid: int
    entries: Tuple[dict, ...] = ()


@dataclass(slots=True)
class PathProofReport(Message):
    """The egress switch's forwarding-accountability report.

    Sent when a PopPathTag action strips a tagged frame: the session's
    path descriptor plus the mark chain the frame actually accumulated
    (:mod:`repro.openflow.pathproof`).  Vendor extension territory in
    real OpenFlow 1.0; modelled as a first-class message here.
    """

    dpid: int
    cookie: int
    descriptor: object  # pathproof.PathDescriptor
    marks: Tuple[int, ...] = ()


@dataclass(slots=True)
class EchoReply(Message):
    dpid: int
    payload: int = 0


@dataclass(slots=True)
class BarrierReply(Message):
    dpid: int
    xid: int = 0


# ---------------------------------------------------------------------------
# Controller -> switch


@dataclass(slots=True)
class FlowMod(Message):
    """Add/modify/delete flow entries."""

    command: str  # "add" | "modify" | "delete" | "delete_strict"
    match: Match
    actions: Tuple[Action, ...] = ()
    priority: int = 100
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: int = 0
    send_flow_removed: bool = False
    buffer_id: Optional[int] = None

    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"
    DELETE_STRICT = "delete_strict"


@dataclass(slots=True)
class PacketOut(Message):
    """Inject a frame (or release a buffered one) through actions."""

    actions: Tuple[Action, ...]
    frame: Optional[Ethernet] = None
    buffer_id: Optional[int] = None
    in_port: Optional[int] = None


@dataclass(slots=True)
class PortStatsRequest(Message):
    port: Optional[int] = None  # None = all ports


@dataclass(slots=True)
class FlowStatsRequest(Message):
    match: Match = field(default_factory=Match)


@dataclass(slots=True)
class EchoRequest(Message):
    payload: int = 0


@dataclass(slots=True)
class BarrierRequest(Message):
    xid: int = 0
