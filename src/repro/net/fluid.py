"""Hybrid fluid/packet fast-forward kernel.

Packet-level simulation is the repo's oracle: every frame is an event,
every hop a callback.  That fidelity is wasted during the long steady
phases of a deployment-scale run -- thousands of CBR flows whose
per-packet behavior is fully determined by rules that were installed
during their first-packet punt.  :class:`FluidRegion` detects those
phases, *suspends* the per-packet emit events, and accounts for the
packets analytically, while the event queue shrinks to the sparse
control-plane barriers (STP hellos, expiry sweeps, stats polls, element
daemons).

What the packets would have written is two kinds of state, and while a
flow is suspended neither is written: the flow is a pure function of
time (:func:`sent_before`).  *Clocks* -- the flow's emission cursor,
``next_free`` on every traversed wire and radio, ``last_used_at`` on
every hit flow entry, the legacy MAC refresh time -- are what
packet-level code acts on, so at suspension the flow is indexed under
every clock it drives (a :class:`ClockShare` on the direction, radio,
entry or learned MAC) and the four sites that read one ask the share.
*Counters* -- tx/rx/busy/drop totals, entry and table hit counts,
delivered bytes -- are additive and only read by cold paths.  The
OpenFlow stats replies, the one periodic reader, add what the flows
indexed under a direction or an entry owe it
(:meth:`ClockShare.owed`) and write nothing.  A *settle*
(:meth:`FluidRegion.flush`, from the other readers, from every way out
of suspension and whenever ``Simulator.run`` returns) pays the
counters and stores the clocks, both at once.

The contract is equivalence, not approximation:

* A flow is only suspended after its path has been walked side-effect
  free (ARP fresh, every link up, a matched non-expiring-soon OpenFlow
  entry at every AS hop, a learned MAC at every legacy hop, no service
  element, no app handler at the destination, exactly one Output per
  rule).  Anything else -- floods, punts, path tags, scans, TCP
  machinery -- *refuses* fast-forward and stays at packet fidelity.
* The region also refuses unless every traversed link direction and
  radio carries a summed demand (suspended flows included) within
  :data:`MAX_UTILIZATION` of its capacity: no drops can occur, so
  synthesized delivered bytes are exact, not modeled.
* Suspension is bounded by validity caps: the earliest ARP expiry,
  legacy MAC aging deadline, or flow-entry hard timeout along the
  path, the flow's own stop time and packet budget.  The first
  emission past a cap is known at suspension, so an ordinary event
  there hands the flow back at exactly the emission where the oracle
  would stop / re-ARP / re-flood / re-punt.
* Any control-plane act that could change forwarding -- a FlowMod, a
  fault injection, a link admin change, a TCP handshake, a new flow's
  first packet -- *materializes* every suspended flow back to packet
  level before it executes.

Emission times are the bit-for-bit expression the emit path uses
(:meth:`TrafficFlow.paced_at`), so a run that dips in and out of fluid
mode reproduces the oracle's per-flow emission schedule exactly.

Known approximations (documented in DESIGN.md): per-packet latency
samples at the destination host are not synthesized, queue-occupancy
gauges read empty while suspended (the headroom check guarantees the
oracle's queues were transient anyway), and FlowRemoved notifications
for *other* sessions' entries that the oracle's datapath would have
observed mid-stream are quantized to the switch's 1 s expiry sweep.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.net import packet as pkt
from repro.net.host import HOST_PORT, Host
from repro.net.legacy import MAC_AGING_S, LegacySwitch
from repro.net.packet import IP_PROTO_TCP
from repro.openflow.actions import (
    CONTROLLER_PORT,
    FLOOD_PORT,
    Output,
    PopPathTag,
    PushPathTag,
)
from repro.openflow.switch import OpenFlowSwitch

_INF = float("inf")

# A suspended flow must refresh each idle-limited entry well inside its
# idle timeout; flows whose packet spacing eats more than this fraction
# of the timeout are refused (the oracle would be racing expiry).
IDLE_REFRESH_FRACTION = 0.5

# Suspension is refused unless every link direction and radio on the
# candidates' paths keeps its summed demand within this share of its
# capacity.
MAX_UTILIZATION = 0.95

MAX_HOPS = 64


class _Walk:
    """Everything learned from one side-effect-free path walk."""

    __slots__ = (
        "hops", "of_hits", "legacy_hits", "dst", "dst_offset",
        "valid_incl", "valid_excl",
    )

    def __init__(self) -> None:
        # Per-hop :class:`~repro.net.links.HopPlan`s, in path order.
        self.hops: List[object] = []
        # (switch, entry, arrival_offset_s, exact_index_hit)
        self.of_hits: List[tuple] = []
        # (switch, src_mac, canonical_in_port, arrival_offset_s)
        self.legacy_hits: List[tuple] = []
        self.dst: Optional[Host] = None
        self.dst_offset = 0.0
        self.valid_incl = _INF  # last instant an emission is still valid
        self.valid_excl = _INF  # first instant an emission is invalid


class _SuspendedFlow:
    """A flow whose emit events have been replaced by a closed form."""

    __slots__ = ("flow", "walk", "base", "interval", "size", "limit",
                 "clocks", "entry_clocks")

    def __init__(self, flow, walk: _Walk) -> None:
        self.flow = flow
        self.walk = walk
        self.base = flow._started_at
        self.interval = flow.interval_s
        self.size = flow.packet_size
        # (direction or radio, when a frame emitted at t has finished
        # serializing there) and (flow entry, when it arrives at that
        # table): what the flow is indexed under and a settle stores.
        self.clocks = [(p.direction, p.end_offset_s) for p in walk.hops]
        self.clocks += [
            (p.medium, p.end_offset_s) for p in walk.hops
            if p.medium is not None
        ]
        self.entry_clocks = [(hit[1], hit[2]) for hit in walk.of_hits]
        # Index of the first emission the oracle would not simply send
        # (packet budget, stop time, a validity cap): the flow is
        # analytic strictly below it.
        self.limit = (sys.maxsize if flow.max_packets is None
                      else flow.max_packets)
        stop_at = _INF if flow._stop_at is None else flow._stop_at
        self.limit = min(
            sent_before(self, min(stop_at, walk.valid_excl)),
            sent_before(self, math.nextafter(walk.valid_incl, _INF)),
        )


def sent_before(sf: _SuspendedFlow, t: float) -> int:
    """How many packets ``sf``'s flow has emitted strictly before ``t``
    (its whole lifetime, never past ``sf.limit``).  Side-effect free.

    The emission grid is exactly :meth:`TrafficFlow.paced_at`:
    closed-form floor first, then fix-up loops so float rounding can
    never disagree with the per-packet expression the oracle evaluates.
    This is the only place the grid is evaluated analytically.
    """
    limit = sf.limit
    if t == _INF:
        return limit
    base, interval = sf.base, sf.interval
    floor = sf.flow.packets_sent  # settled: all of these left before t
    k = int((t - base) / interval) + 1
    if k > limit:
        k = limit
    while k > floor and base + (k - 1) * interval >= t:
        k -= 1
    if k < floor:
        return floor
    while k < limit and base + k * interval < t:
        k += 1
    return k


# A frame that finished serializing this long before ``now`` is not
# holding anything up; far above float error on the grid, far below
# any frame time.
_PHASE_SLACK_S = 1e-9

# How far the phase index widens its window either side: far above the
# slack plus the float error of a phase read as a difference of two
# residues, far below any pacing interval.
_WINDOW_S = 1e-6


class ClockShare:
    """The suspended flows driving one clock -- a wire direction, a
    radio, a flow entry, a learned MAC -- as ``{flow: offset}``: a
    frame the flow emits at ``t`` moves the clock to ``t + offset``.

    The clock's owner holds the share in one slot (None when no
    suspended flow drives it) and asks it where its stored value is
    about to matter; nobody writes the clock until a settle.
    ``members`` is written by :meth:`add` and :meth:`discard` only.
    """

    __slots__ = ("region", "members", "_phases")

    def __init__(self, region: "FluidRegion") -> None:
        self.region = region
        self.members: Dict[_SuspendedFlow, float] = {}
        # The phase index of the pending read (:meth:`_near_grid`),
        # built on its first use after a membership change.
        self._phases: Optional[list] = None

    def add(self, sf: _SuspendedFlow, offset: float) -> None:
        self.members[sf] = offset
        self._phases = None

    def discard(self, sf: _SuspendedFlow) -> None:
        self.members.pop(sf, None)
        self._phases = None

    def latest(self, now: float, pending: bool = False) -> float:
        """Where the frames emitted before ``now`` and not yet settled
        have moved the clock (0.0 when there are none).

        With ``pending`` the caller only cares about an answer later
        than ``now`` (a frame still serializing), so a flow whose phase
        on its pacing grid says its last frame is already through is
        skipped without evaluating the closed form, and the phase index
        skips the flows that are nowhere near a grid point without
        reading them at all.  Both only filter -- within the slack of a
        grid point either side they let the flow through, and the
        answer always comes from the exact count.
        """
        region = self.region
        region.clock_reads += 1
        latest = 0.0
        members = self._near_grid(now) if pending else self.members.items()
        for sf, offset in members:
            if pending:
                phase = (now - sf.base) % sf.interval
                if offset + _PHASE_SLACK_S < phase < sf.interval - _PHASE_SLACK_S:
                    continue
            region.closed_forms += 1
            count = sent_before(sf, now)
            if count > sf.flow.packets_sent:
                moved = sf.base + (count - 1) * sf.interval + offset
                if moved > latest:
                    latest = moved
        return latest

    def owed(self) -> Tuple[int, int]:
        """The frames and bytes the members owe the counters kept
        beside this clock -- a direction's tx and its far port's rx, an
        entry's hits: what a settle now would add to them
        (:meth:`FluidRegion.owed`).  Exact for a direction or an entry,
        which a walk crosses at most once; not for a radio, which a
        station-to-station flow crosses twice."""
        return self.region.owed(self.members)

    def _near_grid(self, now: float) -> List[Tuple[_SuspendedFlow, float]]:
        """The members a pending read at ``now`` has to filter.

        Per pacing interval, a member whose residue ``base % interval``
        lies outside ``[p - widest - w, p + w]`` around ``p = now %
        interval`` (wrapping at the interval's edge; ``widest`` is the
        group's largest offset, ``w`` is :data:`_WINDOW_S`) has its
        phase strictly between its offset plus the slack and the
        interval minus the slack, so the filter would skip it.  A group
        whose window covers its whole interval is taken whole.
        """
        phases = self._phases
        if phases is None:
            phases = self._phases = self._index_phases()
        near: List[Tuple[_SuspendedFlow, float]] = []
        for interval, widest, residues, entries in phases:
            if residues is None:
                near += entries
                continue
            point = now % interval
            low = point - widest - _WINDOW_S
            high = point + _WINDOW_S
            if low >= 0.0 and high < interval:
                near += entries[
                    bisect_left(residues, low):bisect_right(residues, high)
                ]
                continue
            # Wrapped: [0, high] and [low, interval), met at most once.
            if low < 0.0:
                low += interval
            else:
                high -= interval
            head = bisect_right(residues, high)
            near += entries[:head]
            near += entries[max(head, bisect_left(residues, low)):]
        return near

    def _index_phases(self) -> list:
        """``(interval, widest offset, sorted residues or None, members
        in residue order)`` per pacing interval among the members."""
        groups: Dict[float, list] = {}
        for sf, offset in self.members.items():
            groups.setdefault(sf.interval, []).append(
                (sf.base % sf.interval, sf, offset)
            )
        phases = []
        for interval, rows in groups.items():
            widest = max(offset for _residue, _sf, offset in rows)
            rows.sort(key=itemgetter(0))
            residues = [residue for residue, _sf, _offset in rows]
            if widest + 2 * _WINDOW_S >= interval:
                residues = None
            phases.append((
                interval, widest, residues,
                [(sf, offset) for _residue, sf, offset in rows],
            ))
        return phases


class FluidRegion:
    """Flow-level fast-forward attached to a :class:`Simulator`.

    Opt-in (``build_livesec_network(..., fluid=True)``, at any
    ``num_shards``); the region is inert until the first
    :class:`TrafficFlow` registers.  A periodic
    governor then attempts suspension.  The run loop knows nothing of
    it: a suspended flow costs nothing per event, whoever reads a clock
    it drives asks its :class:`ClockShare`, a stats reply adds what the
    share owes a counter (:meth:`ClockShare.owed`), and whatever else
    reads a counter calls :meth:`flush` first.
    """

    def __init__(self, sim):
        self.sim = sim
        self.governor_interval_s = 0.05
        self.flows: Dict[object, None] = {}
        # In suspension order, which is settle order (and so what fixes
        # the float sum in ``busy_time``).
        self._suspended: Dict[object, _SuspendedFlow] = {}
        # The instant ``flush`` last settled every suspended flow at;
        # None once a flow has been suspended since.
        self._settled_at: Optional[float] = None
        # What each suspended flow owes at ``_owed_at`` (:meth:`owed`),
        # emptied by every settle.
        self._owed: Dict[_SuspendedFlow, int] = {}
        self._owed_at: Optional[float] = None
        self._tcp_active: Dict[object, None] = {}
        self._governor = None
        # Sim-seconds of closed suspension spans, and when the open one
        # (``_suspended`` non-empty) began.
        self._time_saved = 0.0
        self._saving_since = 0.0
        # Observability.
        self.fastforwards = 0
        self.packets_synthesized = 0
        self.resumes = 0
        self.settles = 0
        self.clock_reads = 0
        self.closed_forms = 0
        self.refusals: Dict[str, int] = {}
        self.materializations: Dict[str, int] = {}
        sim.attach_fluid(self)

    @property
    def time_saved_s(self) -> float:
        """Sim-seconds covered while flows were suspended, the still
        open span included."""
        if self._suspended:
            return self._time_saved + (self.sim.now - self._saving_since)
        return self._time_saved

    # ------------------------------------------------------------------
    # Registration / lifecycle hooks

    def flow_started(self, flow) -> None:
        """A flow's first packet must punt at packet fidelity."""
        self.materialize_all("flow-start")
        self.flows[flow] = None
        if self._governor is None:
            self._governor = self.sim.every(
                self.governor_interval_s, self._governor_tick
            )

    def flow_stopped(self, flow) -> None:
        self.flows.pop(flow, None)
        sf = self._suspended.get(flow)
        if sf is not None:
            self._release(sf)

    def tcp_opened(self, conn) -> None:
        """Handshake/teardown state machines need packet fidelity."""
        self._tcp_active[conn] = None
        self.materialize_all("tcp-open")

    def tcp_closed(self, conn) -> None:
        self._tcp_active.pop(conn, None)

    def materialize_all(self, reason: str) -> None:
        """Resume every suspended flow at packet level, now.

        Invoked before any act that could change forwarding state:
        FlowMods, fault injections, link admin changes, TCP opens, new
        flows.  Every flow is settled -- counters paid, clocks stored
        -- before the trigger executes.
        """
        if not self._suspended:
            return
        self.flush()
        now = self.sim.now
        self._time_saved += now - self._saving_since
        suspended = list(self._suspended.values())
        self._suspended.clear()
        for sf in suspended:
            self._unbind(sf, everyone=True)
            flow = sf.flow
            if flow._pending is not None:  # its cap event
                flow._pending.cancel()
            flow._pending = self.sim.schedule_at(
                max(now, flow.paced_at(flow.packets_sent)), flow._emit
            )
        self.resumes += len(suspended)
        self.materializations[reason] = self.materializations.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # Suspension

    def _governor_tick(self) -> None:
        if not self.flows:
            self._governor.cancel()
            self._governor = None
            return
        if self._tcp_active:
            self._refuse("tcp-active")
            return
        self._try_suspend()

    def _refuse(self, reason: str) -> None:
        self.refusals[reason] = self.refusals.get(reason, 0) + 1

    def _try_suspend(self) -> None:
        """Suspend every eligible flow -- all of them or none.

        Exactness demands all-or-nothing: a packet-level flow sharing a
        link with suspended ones would see less contention than the
        oracle's, so one ineligible flow (or one oversubscribed link)
        refuses the whole attempt.
        """
        if len(self._suspended) == len(self.flows):
            return
        self.flush()  # the walk reads raw MAC refresh times
        candidates: List[Tuple[object, _Walk]] = []
        for flow in self.flows:
            if flow in self._suspended:
                continue
            walk, reason = self._walk(flow)
            if walk is None:
                self._refuse(reason)
                return
            candidates.append((flow, walk))

        # Every candidate keeps its full rate iff no direction or radio
        # is asked for more than its headroom (a radio once per
        # crossing, so a station-to-station flow counts twice).
        paths = [(flow.rate_bps, walk.hops) for flow, walk in candidates]
        paths += [(sf.flow.rate_bps, sf.walk.hops)
                  for sf in self._suspended.values()]
        demand: Dict[object, float] = {}
        capacity: Dict[object, float] = {}
        for rate, hops in paths:
            for plan in hops:
                medium = plan.medium
                key = plan.direction if medium is None else medium
                demand[key] = demand.get(key, 0.0) + rate
                capacity[key] = (plan.link if medium is None
                                 else medium).bandwidth_bps
        for key, total in demand.items():
            if total > capacity[key] * MAX_UTILIZATION:
                self._refuse("congested")
                return

        now = self.sim.now
        if not self._suspended:
            self._saving_since = now
        self._settled_at = None
        for flow, walk in candidates:
            if flow._pending is not None:
                flow._pending.cancel()
                flow._pending = None
            sf = _SuspendedFlow(flow, walk)
            self._suspended[flow] = sf
            self._bind(sf)
            if sf.limit < sys.maxsize:
                # ``flow._pending`` holds it, so ``flow.stop()`` cancels it.
                flow._pending = self.sim.schedule_at(
                    max(now, flow.paced_at(sf.limit)), self._wake, sf
                )

    def _wake(self, sf: _SuspendedFlow) -> None:
        """``sf``'s first emission the oracle would not simply send is
        due: hand the flow back and let its own emit path stop, re-ARP
        or re-punt exactly as the packet kernel would."""
        self._release(sf)
        self.resumes += 1
        sf.flow._emit()

    # ------------------------------------------------------------------
    # The clock index

    def _bind(self, sf: _SuspendedFlow) -> None:
        """Index ``sf`` under every clock it drives."""
        for clock, offset in sf.clocks + sf.entry_clocks:
            if clock.fluid is None:
                clock.fluid = ClockShare(self)
            # (Twice through one radio, station to station: the later
            # pass, which moves its clock furthest, is the one kept.)
            clock.fluid.add(sf, offset)
        for sw, src_mac, _in_learn, offset in sf.walk.legacy_hits:
            if src_mac not in sw.fluid_macs:
                sw.fluid_macs[src_mac] = ClockShare(self)
            sw.fluid_macs[src_mac].add(sf, offset)

    def _unbind(self, sf: _SuspendedFlow, everyone: bool = False) -> None:
        """Take ``sf`` off every clock it drives, O(1) a clock.  With
        ``everyone`` the other members are leaving too, so each share
        is dropped whole."""
        for clock, _offset in sf.clocks + sf.entry_clocks:
            if everyone:
                clock.fluid = None
            elif clock.fluid is not None:  # (an evicted entry's is gone)
                clock.fluid.discard(sf)
                if not clock.fluid.members:
                    clock.fluid = None
        for sw, src_mac, _in_learn, _offset in sf.walk.legacy_hits:
            share = sw.fluid_macs.get(src_mac)
            if share is not None:
                share.discard(sf)
                if everyone or not share.members:
                    del sw.fluid_macs[src_mac]

    # ------------------------------------------------------------------
    # Path walk (side-effect free)

    def _walk(self, flow):
        """Trace ``flow``'s next packet to its destination.

        Returns ``(walk, None)`` on success, ``(None, reason)`` when
        anything along the path requires packet fidelity.
        """
        if not flow.running or flow._started_at is None:
            return None, "not-running"
        if flow.packets_sent < 1:
            return None, "cold"  # first packet must punt for real
        if type(flow)._emit is not _base_emit():
            return None, "custom-emitter"  # e.g. port scans
        src = flow.src
        now = self.sim.now
        arp = src.arp_table.get(flow.dst_ip)
        if arp is None or now - arp[1] > src.arp_timeout_s:
            return None, "arp-unresolved"
        walk = _Walk()
        walk.valid_incl = arp[1] + src.arp_timeout_s
        frame = self._probe_frame(flow, arp[0])
        port = src.ports.get(HOST_PORT)
        offset = 0.0
        for _ in range(MAX_HOPS):
            if port is None or not port.enabled or port.link is None:
                return None, "no-link"
            link = port.link
            if not link.up:
                return None, "link-down"
            to_port = link.other_end(port)
            if not to_port.enabled:
                return None, "port-disabled"
            tx = frame.size * 8.0 / link.bandwidth_bps
            offset += tx + link.delay_s
            plan = link.fluid_plan(port, offset)
            direction = plan.direction
            for hop in walk.hops:
                if hop.direction is direction:
                    # A settle would pay this direction twice (and the
                    # entry whose one output led here), but its share
                    # holds the flow once: an owed read would fall short.
                    return None, "revisit"
            pending = direction.pending_done
            if pending and pending[-1] > now + plan.end_offset_s - tx:
                # A real frame still holds this hop when the flow's
                # first analytic frame (emitted at >= now) can start
                # serializing here: a draining drop-tail backlog (e.g.
                # right after an overload subsided) would queue-delay
                # -- or drop -- real frames; analytic advance assumes
                # neither.  A frame done before then cannot meet it,
                # e.g. one a switch committed to this queue while it
                # still holds it.  On the first hop this is
                # ``occupancy(now) > 0`` (not asked of a later instant:
                # it prunes).
                return None, "queue-backlog"
            walk.hops.append(plan)
            node = to_port.node
            if getattr(node, "service_type", None) is not None:
                return None, "service-element"
            if isinstance(node, OpenFlowSwitch):
                out = self._walk_openflow(
                    node, frame, to_port.number, now, flow, walk, offset
                )
                if isinstance(out, str):
                    return None, out
                offset += node.forwarding_delay_s
                port = node.ports.get(out)
                continue
            if isinstance(node, LegacySwitch):
                out = node.peek_forward(frame, to_port.number)
                if out is None:
                    return None, "legacy-flood"
                in_learn = to_port.number
                group_of = getattr(node, "group_of", None)
                if group_of is not None and in_learn != group_of(in_learn)[0]:
                    in_learn = group_of(in_learn)[0]
                walk.legacy_hits.append((node, frame.src, in_learn, offset))
                entry = node.mac_table.get(frame.dst)
                if entry is not None:
                    walk.valid_incl = min(
                        walk.valid_incl, entry[1] + MAC_AGING_S
                    )
                port = node.ports.get(out)
                continue
            if isinstance(node, Host):
                if node.ip != flow.dst_ip:
                    return None, "wrong-destination"
                ip = frame.ip()
                if node._app_handlers.get((ip.proto, ip.payload.dport)):
                    return None, "app-handler"
                if node.default_handler is not None:
                    return None, "app-handler"
                walk.dst = node
                walk.dst_offset = offset
                return walk, None
            return None, "unmodelled-node"
        return None, "path-too-long"

    def _walk_openflow(self, sw, frame, in_port, now, flow, walk, offset):
        """One AS-layer hop; returns the egress port or a refusal reason."""
        if sw.compromised is not None:
            return "compromised-switch"
        entry = sw.table.peek(frame, in_port, now)
        if entry is None:
            return "table-miss"
        if entry.is_drop:
            return "drop-rule"
        out = None
        for action in entry.actions:
            if isinstance(action, Output):
                if out is not None:
                    return "multi-output"
                if action.port in (CONTROLLER_PORT, FLOOD_PORT):
                    return "punt-or-flood"
                out = action.port
            elif isinstance(action, (PushPathTag, PopPathTag)):
                return "path-tagged"
            else:
                if out is not None:
                    return "rewrite-after-output"
                action.apply(frame)  # header rewrite feeds downstream matches
        if out is None:
            return "no-output"
        if (entry.idle_timeout > 0
                and flow.interval_s > entry.idle_timeout * IDLE_REFRESH_FRACTION):
            return "sparse-flow"
        if entry.hard_timeout > 0:
            walk.valid_excl = min(
                walk.valid_excl, entry.created_at + entry.hard_timeout
            )
        walk.of_hits.append(
            (sw, entry, offset, entry.match.exact_index_key() is not None)
        )
        return out

    def _probe_frame(self, flow, dst_mac: str):
        """The frame the flow's next emission would put on the wire
        (payload content is irrelevant to matching)."""
        src = flow.src
        if flow.proto == IP_PROTO_TCP:
            return pkt.make_tcp(
                src.mac, dst_mac, src.ip, flow.dst_ip, flow.sport, flow.dport,
                b"", "", flow.packet_size, src.vlan, flow.flow_id,
            )
        return pkt.make_udp(
            src.mac, dst_mac, src.ip, flow.dst_ip, flow.sport, flow.dport,
            b"", flow.packet_size, src.vlan, flow.flow_id,
        )

    # ------------------------------------------------------------------
    # Settling

    def flush(self) -> None:
        """Settle every suspended flow up to now: pay the packets
        emitted since its last settle into the counters along its path
        and store the clocks they moved.

        Called by whatever reads a counter while the event loop runs
        (FlowRemoved, link and host accounting, the gauges), by every
        way out of suspension and by :meth:`Simulator.run` on its way
        out, so code outside the loop always reads settled values.
        The stats replies read :meth:`owed` instead.

        A second flush at one instant is free: unless a flow was
        suspended since (:meth:`_try_suspend`, the only place
        ``_suspended`` grows), every suspended flow's count at ``now``
        is what the first one paid it up to, so there is nothing to
        pay.
        """
        now = self.sim.now
        if now == self._settled_at:
            return
        self._settled_at = now
        self._settle(self._suspended.values())

    def _settle(self, flows) -> None:
        """One settle pass over ``flows`` (suspended, in suspension
        order); a flow with no emission since its last settle costs
        one closed form and nothing else."""
        now = self.sim.now
        paid = 0
        self._owed.clear()
        self.closed_forms += len(flows)
        for sf in flows:
            count = sent_before(sf, now)
            sent = count - sf.flow.packets_sent
            if sent > 0:
                paid += sent
                self._pay(sf, count, sent)
        if paid:
            self.packets_synthesized += paid
            self.fastforwards += 1

    def _pay(self, sf: _SuspendedFlow, count: int, sent: int) -> None:
        """Write what ``sf``'s emissions up to index ``count`` -- the
        last ``sent`` of them not yet settled -- would have written:
        the clocks they moved and the counters along the path."""
        self.settles += 1
        flow = sf.flow
        walk = sf.walk
        size = sf.size
        sent_bytes = sent * size
        flow.packets_sent = count
        flow.bytes_sent += sent_bytes
        # Emission time of the final synthesized frame: real frames
        # sent after the flow resumes queue behind the analytic
        # traffic, entries idle out and MACs age from its arrival.
        last_t = sf.base + (count - 1) * sf.interval
        for sw, src_mac, in_learn, offset in walk.legacy_hits:
            seen = last_t + offset
            learned = sw.mac_table.get(src_mac)
            if learned is None or seen > learned[1]:
                sw.mac_table[src_mac] = (in_learn, seen)
        for clock, offset in sf.clocks:
            end = last_t + offset
            if end > clock.next_free:
                clock.next_free = end
        for entry, offset in sf.entry_clocks:
            seen = last_t + offset
            if seen > entry.last_used_at:
                entry.last_used_at = seen
        for plan in walk.hops:
            busy = sent * (size * 8.0 / plan.link.bandwidth_bps)
            direction = plan.direction
            direction.tx_packets += sent
            direction.tx_bytes += sent_bytes
            direction.busy_time += busy
            port = direction.to_port
            port.rx_packets += sent
            port.rx_bytes += sent_bytes
            medium = plan.medium
            if medium is not None:
                medium.busy_time += busy
                medium.frames += sent
        for sw, entry, _offset, exact in walk.of_hits:
            sw.table.record_fluid_hits(entry, sent, sent_bytes, exact)
            sw.packets_forwarded += sent
        dst = walk.dst
        dst.rx_frames += sent
        dst.rx_bytes += sent_bytes
        dst.rx_bytes_by_flow[flow.flow_id] += sent_bytes
        dst.rx_frames_by_flow[flow.flow_id] += sent

    def owed(self, flows) -> Tuple[int, int]:
        """The frames and bytes ``flows`` (suspended) have sent along
        their paths since their last settle: what a settle now would
        add to a counter they all cross, with nothing written.  One
        closed form per flow per instant: each answer is kept until
        ``now`` moves or a settle pays (a suspension settles first, and
        a flow suspended since is not in the memo)."""
        now = self.sim.now
        memo = self._owed
        if self._owed_at != now:
            memo.clear()
            self._owed_at = now
        frames = total = 0
        for sf in flows:
            sent = memo.get(sf)
            if sent is None:
                self.closed_forms += 1
                sent = memo[sf] = sent_before(sf, now) - sf.flow.packets_sent
            frames += sent
            total += sent * sf.size
        return frames, total

    def _release(self, sf: _SuspendedFlow) -> None:
        """One flow leaves suspension on its own (its cap event, a
        stop): settled, off its clocks, nothing scheduled for it."""
        self._settle((sf,))
        flow = sf.flow
        del self._suspended[flow]
        if not self._suspended:
            self._time_saved += self.sim.now - self._saving_since
        self._unbind(sf)
        if flow._pending is not None:  # the cap event (spent, in _wake)
            flow._pending.cancel()
            flow._pending = None

    # ------------------------------------------------------------------
    # Observability

    def stats(self) -> dict:
        self.flush()
        return {
            "fastforwards": self.fastforwards,
            "time_saved_s": self.time_saved_s,
            "packets_synthesized": self.packets_synthesized,
            "suspended_flows": len(self._suspended),
            "registered_flows": len(self.flows),
            "resumes": self.resumes,
            "settles": self.settles,
            "clock_reads": self.clock_reads,
            "closed_forms": self.closed_forms,
            "refusals": dict(self.refusals),
            "materializations": dict(self.materializations),
        }

    def attach_metrics(self, registry) -> None:
        registry.gauge(
            "sim.fluid_fastforwards",
            "settle passes that paid at least one packet",
        ).set_function(lambda: float(self.fastforwards))
        registry.gauge(
            "sim.fluid_time_saved_s",
            "sim-seconds covered while flows were suspended",
        ).set_function(lambda: self.time_saved_s)
        registry.gauge(
            "sim.fluid_packets_synthesized",
            "packets accounted analytically instead of event-by-event",
        ).set_function(lambda: self.flush() or float(self.packets_synthesized))
        registry.gauge(
            "sim.fluid_settles",
            "per-flow payments of emitted packets into the path's"
            " counters and clocks",
        ).set_function(lambda: float(self.settles))
        registry.gauge(
            "sim.fluid_clock_reads",
            "times a clock's reader asked the suspended flows driving it",
        ).set_function(lambda: float(self.clock_reads))
        registry.gauge(
            "sim.fluid_closed_forms",
            "evaluations of a suspended flow's emission count",
        ).set_function(lambda: float(self.closed_forms))
        registry.gauge(
            "sim.fluid_suspended_flows", "flows currently fast-forwarded",
        ).set_function(lambda: float(len(self._suspended)))
        registry.gauge(
            "sim.fluid_refusals", "suspension attempts refused",
        ).set_function(lambda: float(sum(self.refusals.values())))
        registry.gauge(
            "sim.fluid_materializations",
            "control-plane events that resumed packet fidelity",
        ).set_function(lambda: float(sum(self.materializations.values())))


_BASE_EMIT = None


def _base_emit():
    """The canonical emit method fluid advance replicates (imported
    lazily: workloads sit above the net layer)."""
    global _BASE_EMIT
    if _BASE_EMIT is None:
        from repro.workloads.flows import TrafficFlow

        _BASE_EMIT = TrafficFlow._emit
    return _BASE_EMIT
