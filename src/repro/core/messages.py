"""The service-element <-> controller message channel (Section III.D.1).

Service elements communicate with the LiveSec controller *in band*: a
service daemon on the element "encapsulates the desired message in a
UDP packet with specialized format and identifier"; because the
controller never installs a flow entry for this UDP flow, every message
is punted to it as a PacketIn.  Two message kinds exist:

* **online** -- periodic liveness + service type + load (CPU, memory,
  packets per second),
* **event report** -- emitted when the element produces a result
  (attack detected, protocol identified), carrying the flow's tuple
  and the verdict.

Messages carry a certificate issued by the controller; messages with a
bad certificate are rejected and the offending element's traffic is
dropped at its ingress switch (the paper's certification mechanism).

The wire format is a pipe-separated ASCII encoding -- human-readable in
packet dumps, trivially parseable, and versioned by the leading magic,
which :func:`decode` checks first.  Parsing is *strict*: duplicate
keys, unknown fields, and out-of-range load values are format errors,
not silently accepted -- a report that passed certification but lied
about its shape must not feed garbage into the load balancer.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.net.packet import FlowNineTuple

MAGIC = b"LIVESEC1"
SERVICE_MESSAGE_PORT = 9099
# The nominal L2/L3 destination of element messages.  Any address works
# (the ingress AS switch punts the flow regardless); using fixed ones
# keeps element frames recognizable in traces.
CONTROLLER_MAC = "02:4c:53:00:00:01"
CONTROLLER_IP = "10.255.255.253"


def issue_certificate(secret: str, element_mac: str) -> str:
    """The certificate the controller issues to a legitimate element."""
    digest = hashlib.sha256(f"{secret}|{element_mac}".encode()).hexdigest()
    return digest[:16]


@dataclass
class OnlineMessage:
    """Periodic liveness + load report from a service element."""

    element_mac: str
    certificate: str
    service_type: str  # "ids" | "l7" | "virus"
    cpu: float  # 0..1 utilization
    memory: float  # 0..1 footprint
    pps: float  # processed packets per second
    active_flows: int = 0


@dataclass
class EventReportMessage:
    """A service result: attack found, protocol identified, ..."""

    element_mac: str
    certificate: str
    kind: str  # "attack" | "protocol" | "virus" | ...
    flow: Optional[FlowNineTuple]
    detail: Dict[str, str] = field(default_factory=dict)


ServiceMessage = Union[OnlineMessage, EventReportMessage]


class MessageFormatError(ValueError):
    """Raised when a payload is not a well-formed LiveSec message."""


# ======================================================================
# The wire codec: encode, and strictly decode.  The decode side owns
# *all* validation -- structure, field inventory, value ranges -- so
# the handlers downstream only ever see well-formed typed messages.

_ONLINE_REQUIRED = ("mac", "type", "cpu", "mem", "pps")
_ONLINE_OPTIONAL = ("flows",)


def is_service_message(payload: bytes) -> bool:
    """Cheap check used by the controller's packet classification to
    decide whether a punted UDP frame is element traffic."""
    return payload.startswith(MAGIC + b"|")


def encode_online(message: OnlineMessage) -> bytes:
    parts = [
        MAGIC.decode(),
        message.certificate,
        "ONLINE",
        f"mac={message.element_mac}",
        f"type={message.service_type}",
        f"cpu={message.cpu:.4f}",
        f"mem={message.memory:.4f}",
        f"pps={message.pps:.1f}",
        f"flows={message.active_flows}",
    ]
    return "|".join(parts).encode()


def encode_event(message: EventReportMessage) -> bytes:
    parts = [
        MAGIC.decode(),
        message.certificate,
        "EVENT",
        f"mac={message.element_mac}",
        f"kind={message.kind}",
        f"flow={_encode_flow(message.flow)}",
    ]
    # Detail keys are namespaced with "d." on the wire so they can
    # never shadow the protocol fields above.
    parts.extend(
        f"d.{key}={value}" for key, value in sorted(message.detail.items())
    )
    return "|".join(parts).encode()


def decode(payload: bytes) -> ServiceMessage:
    """Parse a service message payload.

    Returns an :class:`OnlineMessage` or :class:`EventReportMessage`.
    Raises :class:`MessageFormatError` on malformed input (the
    controller treats those as illegitimate traffic): bad magic,
    unknown kind, duplicate or unknown fields, truncated flow tuples,
    and out-of-range load values are all rejected.
    """
    try:
        text = payload.decode()
    except UnicodeDecodeError as exc:
        raise MessageFormatError("not ASCII") from exc
    fields_list = text.split("|")
    if fields_list[0].encode() != MAGIC:
        raise MessageFormatError(f"bad magic in {text[:40]!r}")
    if len(fields_list) < 3:
        raise MessageFormatError("truncated message")
    certificate = fields_list[1]
    kind = fields_list[2]
    kv = _parse_kv(fields_list[3:])
    if kind == "ONLINE":
        return _decode_online(certificate, kv)
    if kind == "EVENT":
        return _decode_event(certificate, kv)
    raise MessageFormatError(f"unknown message kind {kind!r}")


def _decode_online(certificate: str, kv: Dict[str, str]) -> OnlineMessage:
    _check_inventory(kv, _ONLINE_REQUIRED, _ONLINE_OPTIONAL)
    try:
        message = OnlineMessage(
            element_mac=kv["mac"],
            certificate=certificate,
            service_type=kv["type"],
            cpu=float(kv["cpu"]),
            memory=float(kv["mem"]),
            pps=float(kv["pps"]),
            active_flows=int(kv.get("flows", "0")),
        )
    except ValueError as exc:
        raise MessageFormatError(f"bad ONLINE fields: {kv}") from exc
    # Range validation: a certified element can still send garbage
    # (bug, corruption); out-of-range load must not reach the
    # balancer's scoring.
    for name, value, upper in (
        ("cpu", message.cpu, 1.0),
        ("mem", message.memory, 1.0),
        ("pps", message.pps, None),
    ):
        if not math.isfinite(value) or value < 0.0 or (
            upper is not None and value > upper
        ):
            raise MessageFormatError(
                f"ONLINE {name} out of range: {value!r}"
            )
    if message.active_flows < 0:
        raise MessageFormatError(
            f"ONLINE flows negative: {message.active_flows}"
        )
    return message


def _decode_event(
    certificate: str, kv: Dict[str, str]
) -> EventReportMessage:
    try:
        flow = _decode_flow(kv.pop("flow"))
        mac = kv.pop("mac")
        event_kind = kv.pop("kind")
    except KeyError as exc:
        raise MessageFormatError(f"bad EVENT fields: {kv}") from exc
    detail: Dict[str, str] = {}
    for key, value in kv.items():
        if not key.startswith("d."):
            raise MessageFormatError(f"unknown EVENT field {key!r}")
        detail[key[2:]] = value
    return EventReportMessage(
        element_mac=mac,
        certificate=certificate,
        kind=event_kind,
        flow=flow,
        detail=detail,
    )


def _parse_kv(parts: List[str]) -> Dict[str, str]:
    kv: Dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise MessageFormatError(f"bad field {part!r}")
        key, _, value = part.partition("=")
        if key in kv:
            # A duplicated key means the sender (or something on
            # the path) is confused; last-wins would let a crafted
            # second copy silently override the first.
            raise MessageFormatError(f"duplicate field {key!r}")
        kv[key] = value
    return kv


def _check_inventory(kv, required, optional) -> None:
    missing = [key for key in required if key not in kv]
    if missing:
        raise MessageFormatError(f"missing fields {missing}")
    unknown = [
        key for key in kv if key not in required and key not in optional
    ]
    if unknown:
        raise MessageFormatError(f"unknown fields {unknown}")


def _encode_flow(flow: Optional[FlowNineTuple]) -> str:
    if flow is None:
        return "-"
    return ",".join("" if item is None else str(item) for item in flow)


def _decode_flow(text: str) -> Optional[FlowNineTuple]:
    if text == "-":
        return None
    parts = text.split(",")
    if len(parts) != 9:
        raise MessageFormatError(f"bad flow tuple {text!r}")

    def opt_int(value: str) -> Optional[int]:
        return int(value) if value else None

    def opt_str(value: str) -> Optional[str]:
        return value or None

    try:
        return FlowNineTuple(
            vlan=opt_int(parts[0]),
            dl_src=parts[1],
            dl_dst=parts[2],
            dl_type=int(parts[3]),
            nw_src=opt_str(parts[4]),
            nw_dst=opt_str(parts[5]),
            nw_proto=opt_int(parts[6]),
            tp_src=opt_int(parts[7]),
            tp_dst=opt_int(parts[8]),
        )
    except ValueError as exc:
        raise MessageFormatError(f"bad flow tuple {text!r}") from exc

