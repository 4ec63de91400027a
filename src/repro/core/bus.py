"""The controller's deterministic in-process event bus.

The LiveSec controller is decomposed into NOX-style *apps*
(:mod:`repro.core.apps`) that communicate over this bus: the
composition root (:class:`repro.core.controller.LiveSecController`)
classifies raw OpenFlow input into the typed events below and
publishes them; apps subscribe to the types they care about and react
-- reading and writing the shared state surfaces (NIB, session table,
service registry, policy table) and publishing follow-up events of
their own.

Determinism is the design constraint: the same input sequence must
produce the same dispatch sequence, because the fault-injection
harness scores runs by a sha256 digest of the event log.  Dispatch is
therefore *synchronous and depth-first* (publishing from inside a
handler runs the nested handlers to completion before the outer
publish returns, exactly like the direct method calls the bus
replaced), and subscriber order is explicit: handlers fire ordered by
``(priority, subscription sequence)``, both of which are fixed at
wiring time.  No wall-clock, no hashing of ids, no set iteration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Type

__all__ = [
    "EventBus",
    "Subscription",
    # Raw OpenFlow input, classified by the composition root.
    "SwitchJoined",
    "SwitchLeft",
    "LinkDiscovered",
    "LinkTimedOut",
    "ArpIn",
    "DhcpIn",
    "ServiceFrameIn",
    "DataPacketIn",
    "FlowRemovedIn",
    "PortStatsIn",
    "FlowStatsIn",
    "PathProofIn",
    "TaggedPacketIn",
    # Domain events published by apps for other apps.
    "HostExpired",
    "HostMoved",
    "ElementExpired",
    "BlockRequested",
    "UplinksLost",
    "PolicyReloaded",
    "PathViolation",
    "SwitchQuarantined",
    "SessionHandoffIn",
    "AppLifecycleChanged",
]


# ======================================================================
# Typed events
#
# Events are plain frozen dataclasses: immutable envelopes around the
# underlying protocol message or shared-state record.  ``eq=False``
# keeps identity semantics (two PacketIns are never "the same event").


@dataclass(frozen=True, eq=False)
class SwitchJoined:
    """A datapath connected (carries the controller's SwitchHandle)."""

    handle: object


@dataclass(frozen=True, eq=False)
class SwitchLeft:
    """A datapath disconnected."""

    handle: object


@dataclass(frozen=True, eq=False)
class LinkDiscovered:
    """LLDP confirmed a new unidirectional switch-to-switch link."""

    link: object


@dataclass(frozen=True, eq=False)
class LinkTimedOut:
    """A previously confirmed link stopped being re-confirmed."""

    link: object


@dataclass(frozen=True, eq=False)
class ArpIn:
    """An ARP frame was punted to the controller."""

    packet_in: object
    arp: object


@dataclass(frozen=True, eq=False)
class DhcpIn:
    """A DHCP exchange was punted to the controller."""

    packet_in: object
    dhcp: object


@dataclass(frozen=True, eq=False)
class ServiceFrameIn:
    """A service-element wire message (LIVESEC UDP) was punted."""

    packet_in: object
    payload: bytes


@dataclass(frozen=True, eq=False)
class DataPacketIn:
    """A data-plane first packet was punted (everything else)."""

    packet_in: object


@dataclass(frozen=True, eq=False)
class FlowRemovedIn:
    """A flow entry expired or was deleted on a datapath."""

    message: object


@dataclass(frozen=True, eq=False)
class PortStatsIn:
    """A PortStatsReply arrived."""

    message: object


@dataclass(frozen=True, eq=False)
class FlowStatsIn:
    """A FlowStatsReply arrived."""

    message: object


@dataclass(frozen=True, eq=False)
class PathProofIn:
    """An egress switch reported a forwarding-accountability proof
    (carries the raw :class:`repro.openflow.messages.PathProofReport`)."""

    message: object


@dataclass(frozen=True, eq=False)
class TaggedPacketIn:
    """A frame still carrying a path tag was punted to the controller:
    it left its expected path (misroute evidence), so it must reach
    the accountability app, never the steering first-packet path."""

    packet_in: object
    tag: object  # pathproof.PathTag


@dataclass(frozen=True, eq=False)
class HostExpired:
    """The host tracker expired a silent host (carries its record)."""

    record: object


@dataclass(frozen=True, eq=False)
class HostMoved:
    """A known host was re-learned at a different switch/port (VM
    migration, wired-to-wifi roam).  ``record`` is the mover's
    ``HostRecord`` value as the NIB learned it -- or the shard fabric's
    directory row, for a move another shard saw; steering re-plans the
    mover's sessions and blocks from it."""

    record: object


@dataclass(frozen=True, eq=False)
class ElementExpired:
    """The service directory declared an element offline."""

    record: object


@dataclass(frozen=True, eq=False)
class BlockRequested:
    """Some app wants traffic dropped at its ingress switch: ``flow``,
    or -- ``flow=None`` -- every frame ``src`` sends.

    ``session`` is the affected session when one exists; ``attack``
    names what was detected, for the FLOW_BLOCKED event log line.
    """

    src: object  # HostRecord locating the ingress
    flow: Optional[object] = None
    session: Optional[object] = None
    attack: Optional[str] = None


@dataclass(frozen=True, eq=False)
class UplinksLost:
    """Switches lost fabric uplinks; sessions through them are dead."""

    dpids: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class PolicyReloaded:
    """The policy table swapped atomically to a new version.

    Carries the :class:`repro.core.policy.PolicyCommit` record of the
    swap.  Policy-engine logs the new version, monitor counts the
    reload; established sessions keep their installed rules.
    """

    commit: object  # PolicyCommit


@dataclass(frozen=True, eq=False)
class PathViolation:
    """The accountability app attributed a forwarding violation.

    ``dpid`` is the accused datapath; ``reason`` is the proof-chain
    verdict (``mark-mismatch``/``chain-truncated``/...) or
    ``proof-silence`` when detected by the absence audit.  Steering
    reacts by quarantining and rerouting sessions off the switch.
    """

    dpid: int
    reason: str
    session_id: Optional[int] = None
    evidence: str = "egress-proof"  # "egress-proof" | "stray-tag" | "audit"


@dataclass(frozen=True, eq=False)
class SwitchQuarantined:
    """The controller quarantined a datapath after a PathViolation:
    no new waypoint placement there, existing sessions rerouted."""

    dpid: int
    reason: str


@dataclass(frozen=True, eq=False)
class SessionHandoffIn:
    """Another shard transferred a roaming host's sessions to this one
    (carries the :class:`repro.core.sharding.SessionHandoff`).  Steering
    adopts the records: re-resolve the path from the new location,
    re-install ingress rules, preserve the session ids."""

    handoff: object  # sharding.SessionHandoff


@dataclass(frozen=True, eq=False)
class AppLifecycleChanged:
    """A controller app changed lifecycle state at runtime.

    ``action`` is one of ``started``/``stopped``/``reloaded``/
    ``removed``/``crash-detected``/``restarted``.  Steering reacts by
    draining session state owned by a departed accountability app;
    the shard fabric surfaces per-shard app churn through it.  The
    ``app`` attribute names the app; ``status`` is its typed
    :class:`~repro.core.apps.base.ServiceStatus` at publish time (None
    once an app is removed outright).
    """

    app: str
    action: str
    status: Optional[object] = None  # ServiceStatus


# ======================================================================
# The bus


@dataclass(frozen=True)
class Subscription:
    """One (event type -> handler) edge, for introspection."""

    event: str
    app: str
    handler: str
    priority: int


class EventBus:
    """Synchronous, deterministically ordered publish/subscribe.

    Handlers for an event type fire in ``(priority, subscription
    order)`` -- lower priority first, ties broken by wiring order.
    ``publish`` dispatches depth-first: events published from inside a
    handler are fully handled before the outer ``publish`` returns.
    """

    def __init__(self, metrics=None):
        self._handlers: Dict[Type, List[_Edge]] = {}
        self._seq = itertools.count()
        self._published = {}  # event type name -> Counter
        self._metrics = metrics

    def subscribe(
        self,
        event_type: Type,
        handler: Callable[[object], None],
        app: str = "?",
        priority: int = 0,
    ) -> Callable[[], None]:
        """Register ``handler`` for events of ``event_type``.

        Returns an unsubscribe callable (idempotent).
        """
        edge = _Edge(
            priority=priority,
            seq=next(self._seq),
            handler=handler,
            app=app,
        )
        edges = self._handlers.setdefault(event_type, [])
        edges.append(edge)
        edges.sort(key=lambda e: (e.priority, e.seq))

        def unsubscribe() -> None:
            # The removed flag (checked by in-flight publishes) makes
            # unsubscribing from inside a handler safe: the snapshot a
            # running publish iterates may still hold this edge, but it
            # will no longer be dispatched at that depth.
            edge.removed = True
            try:
                edges.remove(edge)
            except ValueError:
                pass

        return unsubscribe

    def publish(self, event: object) -> int:
        """Dispatch ``event`` to its subscribers; returns how many ran."""
        if self._metrics is not None:
            name = type(event).__name__
            counter = self._published.get(name)
            if counter is None:
                counter = self._metrics.counter(
                    "bus.events_published",
                    "Events published on the controller bus",
                    event=name,
                )
                self._published[name] = counter
            counter.inc()
        edges = self._handlers.get(type(event))
        if not edges:
            return 0
        delivered = 0
        # Iterate a snapshot so handlers may subscribe/unsubscribe
        # freely: a subscriber added during this publish first fires on
        # the *next* event, and one removed during this publish is
        # skipped (the removed flag) -- every remaining subscriber at
        # this depth runs exactly once, never twice, never skipped.
        for edge in list(edges):
            if edge.removed:
                continue
            edge.handler(event)
            delivered += 1
        return delivered

    def unsubscribe_app(self, app: str) -> int:
        """Remove every subscription edge registered under ``app``.

        The rollback path for transactional app registration: when an
        app's constructor raises partway through wiring, the partially
        registered handlers are unreachable through the app object, but
        they still carry its name.  Returns how many edges were removed.
        """
        removed = 0
        for edges in self._handlers.values():
            for edge in [e for e in edges if e.app == app]:
                edge.removed = True
                edges.remove(edge)
                removed += 1
        return removed

    def subscriptions(self) -> List[Subscription]:
        """Every subscription edge, in deterministic dispatch order."""
        result: List[Subscription] = []
        for event_type in sorted(self._handlers, key=lambda t: t.__name__):
            for edge in self._handlers[event_type]:
                handler_name = getattr(
                    edge.handler, "__name__", repr(edge.handler)
                )
                result.append(Subscription(
                    event=event_type.__name__,
                    app=edge.app,
                    handler=handler_name,
                    priority=edge.priority,
                ))
        return result


@dataclass
class _Edge:
    priority: int
    seq: int
    handler: Callable[[object], None]
    app: str = "?"
    removed: bool = False
    extras: dict = field(default_factory=dict, repr=False)
