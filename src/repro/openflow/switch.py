"""The OpenFlow switch datapath (our Open vSwitch stand-in).

Behavior mirrors OpenFlow 1.0: a frame is matched against the flow
table; on a hit the entry's actions run in sequence (header rewrites
affect later outputs); on a miss the frame is buffered and punted to
the controller as a PacketIn.  FlowMod/PacketOut/stats messages from
the controller are handled as the spec describes, including releasing
buffered frames via ``buffer_id`` and FlowRemoved notifications for
expired entries.

The datapath charges a small per-frame ``forwarding_delay_s``
(software-switch lookup cost).  This is what makes the LiveSec path
measurably slower than pure legacy switching -- the +10 % latency
result of Section V.B.3.  The delay is not an event of its own: the
action stage runs on arrival with the clock reading the departure
instant (:meth:`OpenFlowSwitch._forward` sets ``sim.now`` ahead and
restores it -- the one writer of the clock besides ``Simulator.run``),
so a switch hop costs one event, the link delivery, which the port's
transmit (the node's ``egress`` entry) pushes onto the queue.  A Wi-Fi
AP, whose radio stations share, posts the stage instead
(``WifiAccessPoint._forward``).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Optional, Tuple

from repro.net.node import Node
from repro.net.packet import Ethernet
from repro.openflow import messages as msg
from repro.openflow import pathproof
from repro.openflow.actions import (
    EMIT_FLOOD,
    EMIT_PORT,
    POP_TAG,
    REWRITE,
    ActionPlan,
    Output,
    compile_actions,
)
from repro.openflow.channel import SecureChannel
from repro.openflow.flowtable import FlowEntry, FlowTable

# "Compromised switch" misbehavior variants the fault harness injects
# (None = honest).  See DESIGN §7 threat model.
COMPROMISE_VARIANTS = ("skip-waypoint", "misroute", "tag-strip")

DEFAULT_FORWARDING_DELAY_S = 25e-6
EXPIRY_SWEEP_INTERVAL_S = 1.0
MAX_BUFFERED_FRAMES = 4096
MAX_PENDING_REPLIES = 512


def _with_owed(packets: int, total: int, clock) -> Tuple[int, int]:
    """A stored frame and byte count plus what the suspended flows
    driving ``clock`` (a link direction or a flow entry; None for an
    unwired port) owe it, through its fluid share
    (``repro.net.fluid.ClockShare.owed``): the settled value, read
    without settling."""
    share = None if clock is None else clock.fluid
    if share is None:
        return packets, total
    owed_packets, owed_bytes = share.owed()
    return packets + owed_packets, total + owed_bytes


class OpenFlowSwitch(Node):
    """An OpenFlow-enabled switch (AS switch in LiveSec terms)."""

    def __init__(
        self,
        sim,
        name: str,
        dpid: int,
        forwarding_delay_s: float = DEFAULT_FORWARDING_DELAY_S,
    ):
        # ``not >=`` so a NaN is rejected too: _forward moves the clock
        # by it unchecked.
        if not forwarding_delay_s >= 0:
            raise ValueError(
                f"forwarding delay must be non-negative"
                f" (got {forwarding_delay_s})"
            )
        super().__init__(sim, name)
        self.dpid = dpid
        self.table = FlowTable()
        self.channel: Optional[SecureChannel] = None
        self.forwarding_delay_s = forwarding_delay_s
        self._buffers: OrderedDict[int, Tuple[Ethernet, int]] = OrderedDict()
        self._buffer_ids = itertools.count(1)
        # State-bearing messages (FlowRemoved) raised while the channel
        # is down are parked here and flushed on reconnect, so the
        # controller's session store never silently diverges from the
        # datapath across an outage.
        self._pending_replies: list = []
        self.packet_ins = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        # Forwarding accountability: the per-switch stamping key (the
        # deployment overrides this when built with a non-default
        # secret) and the injected-misbehavior state.
        self.path_secret = pathproof.derive_switch_secret(
            pathproof.DEFAULT_SECRET, dpid
        )
        self.compromised: Optional[str] = None
        self.compromised_port: Optional[int] = None
        self.path_marks_stamped = 0
        self.path_proofs_sent = 0
        self.waypoints_skipped = 0
        self.frames_misrouted = 0
        self.tags_stripped = 0
        self.metrics = None
        sim.every(
            EXPIRY_SWEEP_INTERVAL_S,
            self._sweep_expired,
            start=sim.now + EXPIRY_SWEEP_INTERVAL_S + (dpid % 13) * 1e-3,
        )

    # ------------------------------------------------------------------
    # Observability

    def attach_metrics(self, registry) -> None:
        """Publish this datapath's state through an obs registry.

        Pull-mode gauges keyed by dpid: nothing is added to the
        per-frame fast path, the registry reads the live attributes at
        snapshot time (the totals a fluid region adds to, once it has
        settled them).
        """
        self.metrics = registry
        labels = {"dpid": self.dpid}
        registry.gauge(
            "switch.flow_table_entries",
            "Installed flow entries (table occupancy)", **labels,
        ).set_function(lambda: len(self.table))
        registry.gauge(
            "switch.buffered_frames",
            "Frames parked awaiting a controller verdict", **labels,
        ).set_function(lambda: len(self._buffers))
        registry.gauge(
            "switch.packet_ins", "Frames punted to the controller", **labels,
        ).set_function(lambda: self.packet_ins)
        registry.gauge(
            "switch.packets_forwarded", "Frames emitted by actions", **labels,
        ).set_function(
            # settle_fluid() returns None: the total is read after it.
            lambda: self.sim.settle_fluid() or self.packets_forwarded
        )
        registry.gauge(
            "switch.packets_dropped",
            "Frames dropped (drop entries, dead channel)", **labels,
        ).set_function(lambda: self.packets_dropped)
        self.table.attach_metrics(
            registry, settle=self.sim.settle_fluid, **labels
        )

    # ------------------------------------------------------------------
    # Data plane

    def compromise(self, variant: str, port: Optional[int] = None) -> None:
        """Make this datapath misbehave (fault-harness hook).

        ``skip-waypoint`` forwards tagged frames past a local service
        element in one rule traversal; ``misroute`` outputs tagged
        frames to ``port`` instead of the rule's port; ``tag-strip``
        removes accountability tags and never stamps.
        """
        if variant not in COMPROMISE_VARIANTS:
            raise ValueError(
                f"variant must be one of {COMPROMISE_VARIANTS} (got {variant})"
            )
        self.compromised = variant
        self.compromised_port = port

    def receive(self, frame: Ethernet, in_port: int) -> None:
        table = self.table
        entry = table.lookup(frame, in_port, self.sim.now)
        # Entries observed expired are evicted by the lookup itself, so
        # table occupancy and FlowRemoved timing always agree with what
        # the datapath honored -- notify the controller immediately
        # instead of waiting for the next sweep tick.
        if table.pending_removals:
            for removed in table.take_removed():
                if removed.entry.send_flow_removed:
                    self._send_flow_removed(removed.entry, removed.reason)
        if entry is None:
            self._punt_to_controller(frame, in_port, reason="no_match")
            return
        if not entry.actions:
            self.packets_dropped += 1
            return
        plan = entry.plan
        if (
            self.compromised == "skip-waypoint"
            and frame.path_tag is not None
        ):
            plan = self._skip_waypoint_plan(frame, entry)
        # The plan is fixed here, at arrival -- a FlowMod inside the
        # forwarding delay never changed it -- so the action stage can
        # run now, as of the frame's departure (see _forward).
        self._forward(frame, in_port, plan)

    def _forward(self, frame: Ethernet, in_port: int, plan: ActionPlan) -> None:
        """Charge the forwarding delay and run ``plan`` on ``frame``:
        the one way a frame leaves the action stage (lookup hit,
        PacketOut, buffered-frame release on a FlowMod).

        Not an event: the stage runs at once with ``sim.now`` reading
        the departure instant -- the very float a posted stage would
        fire at -- and the clock is restored when it returns or raises.
        Every reader in the action stage -- ``transmit``'s queue prune,
        ``next_free`` and fluid share, the channel posts for path proofs
        and punts -- sees the instant it would see
        ``forwarding_delay_s`` from now, and what it posts lands where a
        posted stage's would.  That is
        exact because the plan is already fixed and a wired egress
        direction is fed only by this switch, through here, after one
        constant delay, so frames leave in arrival order at the same
        instants.  What differs is anything landing inside the gap: a
        link, port or compromise change, or a lossy-channel draw, is
        seen by the frame at arrival; a reader of what the stage writes
        (a port-stats poll, a ``run(until=)`` boundary) finds the frame
        already sent.  DESIGN 3.2 has the argument.
        """
        sim = self.sim
        now = sim.now
        sim.now = now + self.forwarding_delay_s
        try:
            self._apply_actions(frame, in_port, plan)
        finally:
            sim.now = now

    def _skip_waypoint_plan(
        self, frame: Ethernet, entry: FlowEntry
    ) -> ActionPlan:
        """The skip-waypoint misbehavior: when the matched rule would
        hand a tagged frame to a locally attached service element,
        forward it straight through as if the element had already
        returned it -- one rule traversal (and one path-proof stamp)
        instead of two, which is exactly what breaks the mark chain at
        this switch's position."""
        element_port = None
        for action in entry.actions:
            if isinstance(action, Output) and action.port > 0:
                port = self.ports.get(action.port)
                peer = port.peer() if port is not None else None
                # Host-facing ports (hosts carry a MAC; switches don't)
                # are where service elements hang off the datapath.
                if peer is not None and getattr(peer.node, "mac", None):
                    element_port = action.port
                break
        if element_port is None:
            return entry.plan
        onward = self.table.lookup(frame, element_port, self.sim.now)
        if onward is None or onward.is_drop or onward.actions == entry.actions:
            return entry.plan
        self.waypoints_skipped += 1
        return onward.plan

    def _apply_actions(
        self, frame: Ethernet, in_port: int, plan: ActionPlan
    ) -> None:
        compromised = self.compromised
        egress = self.egress
        if compromised == "tag-strip" and frame.path_tag is not None:
            frame.path_tag = None
            self.tags_stripped += 1
        outputs = 0
        stamped = False
        for kind, arg, hand_over in plan:
            if kind == REWRITE:
                arg.apply(frame)
                continue
            # Every emission and the egress pop carry this switch's
            # mark: stamp once, before the first of them.
            if not stamped and frame.path_tag is not None:
                frame.path_tag = frame.path_tag.stamped(
                    self.path_secret, self.dpid
                )
                self.path_marks_stamped += 1
                stamped = True
            if kind == POP_TAG:
                # Egress: strip the tag and report the accumulated
                # chain for verification.
                tag = frame.path_tag
                frame.path_tag = None
                if tag is not None:
                    self.path_proofs_sent += 1
                    self._reply(msg.PathProofReport(
                        dpid=self.dpid,
                        cookie=tag.descriptor.session_id,
                        descriptor=tag.descriptor,
                        marks=tag.marks,
                    ))
                continue
            # Only clone when the frame is emitted again later; the
            # final emission may hand over the original (fast path).
            emit = frame if hand_over else frame.clone()
            if kind == EMIT_PORT:
                out_port = arg
                if (
                    compromised == "misroute"
                    and frame.path_tag is not None
                    and self.compromised_port is not None
                    and self.compromised_port != out_port
                    and self.compromised_port in self.ports
                ):
                    out_port = self.compromised_port
                    self.frames_misrouted += 1
                # Node.send, read in place: once per emission.
                transmit = egress.get(out_port)
                if transmit is not None:
                    transmit(emit)
                    outputs += 1
            elif kind == EMIT_FLOOD:
                outputs += self.flood(emit, in_port)
            else:
                self._punt_to_controller(emit, in_port, reason="action")
        self.packets_forwarded += outputs

    def _punt_to_controller(self, frame: Ethernet, in_port: int, reason: str) -> None:
        if self.channel is None or not self.channel.connected:
            self.packets_dropped += 1
            return
        buffer_id = next(self._buffer_ids)
        self._buffers[buffer_id] = (frame, in_port)
        while len(self._buffers) > MAX_BUFFERED_FRAMES:
            self._buffers.popitem(last=False)
        self.packet_ins += 1
        self.channel.to_controller(
            msg.PacketIn(
                dpid=self.dpid,
                in_port=in_port,
                frame=frame,
                buffer_id=buffer_id,
                reason=reason,
            )
        )

    # ------------------------------------------------------------------
    # Control plane

    def handle_of_message(self, message: msg.Message) -> None:
        """Process a controller-to-switch message."""
        if isinstance(message, msg.FlowMod):
            # A rule change can invalidate any fast-forwarded path; the
            # fluid region (if any) must replay affected flows at
            # packet fidelity from this instant on.  PacketOuts and
            # stats polls deliberately do NOT materialize: LLDP beacons
            # and monitor sweeps are periodic background chatter.
            fluid = self.sim.fluid
            if fluid is not None:
                fluid.materialize_all("flowmod")
            self._handle_flow_mod(message)
        elif isinstance(message, msg.PacketOut):
            self._handle_packet_out(message)
        elif isinstance(message, msg.PortStatsRequest):
            self._handle_port_stats(message)
        elif isinstance(message, msg.FlowStatsRequest):
            self._handle_flow_stats(message)
        elif isinstance(message, msg.EchoRequest):
            self._reply(msg.EchoReply(dpid=self.dpid, payload=message.payload))
        elif isinstance(message, msg.BarrierRequest):
            self._reply(msg.BarrierReply(dpid=self.dpid, xid=message.xid))
        else:
            raise TypeError(f"unhandled OpenFlow message: {message!r}")

    def _handle_flow_mod(self, mod: msg.FlowMod) -> None:
        now = self.sim.now
        added: Optional[FlowEntry] = None
        if mod.command == msg.FlowMod.MODIFY and self.table.modify(
            mod.match, tuple(mod.actions), now
        ):
            pass
        elif mod.command in (msg.FlowMod.ADD, msg.FlowMod.MODIFY):
            # OpenFlow semantics: MODIFY with no match behaves as ADD,
            # so both build the entry from every field of the FlowMod.
            added = FlowEntry(
                match=mod.match,
                actions=tuple(mod.actions),
                priority=mod.priority,
                idle_timeout=mod.idle_timeout,
                hard_timeout=mod.hard_timeout,
                cookie=mod.cookie,
                send_flow_removed=mod.send_flow_removed,
            )
            self.table.add(added, now)
        elif mod.command in (msg.FlowMod.DELETE, msg.FlowMod.DELETE_STRICT):
            strict = mod.command == msg.FlowMod.DELETE_STRICT
            removed = self.table.delete(
                mod.match, strict=strict, priority=mod.priority if strict else None
            )
            for entry in removed:
                if entry.send_flow_removed:
                    self._send_flow_removed(entry, "delete")
        else:
            raise ValueError(f"unknown FlowMod command: {mod.command}")

        if mod.buffer_id is not None and mod.command in (
            msg.FlowMod.ADD,
            msg.FlowMod.MODIFY,
        ):
            buffered = self._buffers.pop(mod.buffer_id, None)
            if buffered is not None:
                frame, in_port = buffered
                if mod.actions:
                    # An added entry compiled the actions already; a
                    # MODIFY that rewrote entries in place did not.
                    plan = (added.plan if added is not None
                            else compile_actions(tuple(mod.actions)))
                    self._forward(frame, in_port, plan)

    def _handle_packet_out(self, out: msg.PacketOut) -> None:
        frame: Optional[Ethernet] = out.frame
        in_port = out.in_port if out.in_port is not None else 0
        if out.buffer_id is not None:
            buffered = self._buffers.pop(out.buffer_id, None)
            if buffered is None:
                return
            frame, in_port = buffered
        if frame is None:
            return
        self._forward(frame, in_port, compile_actions(tuple(out.actions)))

    def _handle_port_stats(self, request: msg.PortStatsRequest) -> None:
        fluid = self.sim.fluid
        stats = {}
        for number, port in sorted(self.ports.items()):
            if request.port is not None and number != request.port:
                continue
            tx_packets, tx_bytes = port.tx_packets, port.tx_bytes
            rx_packets, rx_bytes = port.rx_packets, port.rx_bytes
            if fluid is not None:
                # Frames out of this port are counted on its direction,
                # frames into it on the peer's.
                peer = port.peer()
                tx_packets, tx_bytes = _with_owed(
                    tx_packets, tx_bytes, port.direction)
                rx_packets, rx_bytes = _with_owed(
                    rx_packets, rx_bytes, peer and peer.direction)
            stats[number] = {
                "tx_packets": tx_packets,
                "tx_bytes": tx_bytes,
                "rx_packets": rx_packets,
                "rx_bytes": rx_bytes,
                "tx_drops": port.tx_drops,
            }
        self._reply(msg.PortStatsReply(dpid=self.dpid, stats=stats))

    def _handle_flow_stats(self, request: msg.FlowStatsRequest) -> None:
        fluid = self.sim.fluid
        entries = []
        for entry in self.table:
            if not entry.match.is_subset_of(request.match):
                continue
            packets, total = entry.packets, entry.bytes
            if fluid is not None:
                packets, total = _with_owed(packets, total, entry)
            entries.append({
                "match": entry.match,
                "priority": entry.priority,
                "cookie": entry.cookie,
                "packets": packets,
                "bytes": total,
                "age_s": self.sim.now - entry.created_at,
            })
        self._reply(msg.FlowStatsReply(dpid=self.dpid, entries=tuple(entries)))

    def _sweep_expired(self) -> None:
        for removed in self.table.expire(self.sim.now):
            if removed.entry.send_flow_removed:
                self._send_flow_removed(removed.entry, removed.reason)

    def _send_flow_removed(self, entry: FlowEntry, reason: str) -> None:
        self.sim.settle_fluid()
        self._reply(
            msg.FlowRemoved(
                dpid=self.dpid,
                match=entry.match,
                priority=entry.priority,
                cookie=entry.cookie,
                reason=reason,
                duration_s=self.sim.now - entry.created_at,
                packets=entry.packets,
                bytes=entry.bytes,
            )
        )

    def _reply(self, message: msg.Message) -> None:
        if self.channel is not None and self.channel.connected:
            self.channel.to_controller(message)
            return
        # Channel down: keep FlowRemoved (bounded) for the reconnect
        # flush; periodic stats replies are droppable, the controller
        # simply polls again.
        if isinstance(message, msg.FlowRemoved) and \
                len(self._pending_replies) < MAX_PENDING_REPLIES:
            self._pending_replies.append(message)

    def on_channel_connected(self) -> None:
        """Channel (re-)established: flush replies parked during the
        outage (called by :meth:`SecureChannel.connect`)."""
        pending, self._pending_replies = self._pending_replies, []
        for message in pending:
            self.channel.to_controller(message)

    def features(self) -> msg.FeaturesReply:
        """The FeaturesReply advertised on channel establishment."""
        return msg.FeaturesReply(
            dpid=self.dpid,
            ports=tuple(sorted(self.ports)),
        )
