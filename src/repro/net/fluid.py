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
delivered bytes -- are additive and only read by cold paths.  A
*settle* (:meth:`FluidRegion.flush`, from those readers, from every
way out of suspension and whenever ``Simulator.run`` returns) pays the
counters and stores the clocks, both at once.

The contract is equivalence, not approximation:

* A flow is only suspended after its path has been walked side-effect
  free (ARP fresh, every link up, a matched non-expiring-soon OpenFlow
  entry at every AS hop, a learned MAC at every legacy hop, no service
  element, no app handler at the destination, exactly one Output per
  rule).  Anything else -- floods, punts, path tags, scans, TCP
  machinery -- *refuses* fast-forward and stays at packet fidelity.
* Under the default ``congestion="refuse"`` policy the region also
  refuses unless max-min fair allocation over every traversed link
  direction gives *every* candidate its full demand under the
  ``max_utilization`` headroom: no drops can occur, so synthesized
  delivered bytes are exact, not modeled.
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
gauges read empty while suspended (the refuse policy guarantees the
oracle's queues were transient anyway), and FlowRemoved notifications
for *other* sessions' entries that the oracle's datapath would have
observed mid-stream are quantized to the switch's 1 s expiry sweep.
"""

from __future__ import annotations

import math
import sys
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
                 "rate_bps", "residual", "clocks", "entry_clocks")

    def __init__(self, flow, walk: _Walk, rate_bps: float) -> None:
        self.flow = flow
        self.walk = walk
        self.base = flow._started_at
        self.interval = flow.interval_s
        self.size = flow.packet_size
        self.rate_bps = rate_bps
        self.residual = 0.0  # fractional delivery carry (rate policy)
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


class ClockShare:
    """The suspended flows driving one clock -- a wire direction, a
    radio, a flow entry, a learned MAC -- as ``{flow: offset}``: a
    frame the flow emits at ``t`` moves the clock to ``t + offset``.

    The clock's owner holds the share in one slot (None when no
    suspended flow drives it) and asks it where its stored value is
    about to matter; nobody writes the clock until a settle.
    """

    __slots__ = ("region", "members")

    def __init__(self, region: "FluidRegion") -> None:
        self.region = region
        self.members: Dict[_SuspendedFlow, float] = {}

    def latest(self, now: float, pending: bool = False) -> float:
        """Where the frames emitted before ``now`` and not yet settled
        have moved the clock (0.0 when there are none).

        With ``pending`` the caller only cares about an answer later
        than ``now`` (a frame still serializing), so a flow whose phase
        on its pacing grid says its last frame is already through is
        skipped without evaluating the closed form.  The modulo only
        filters -- within the slack of a grid point either side it
        lets the flow through, and the answer always comes from the
        exact count.
        """
        region = self.region
        region.clock_reads += 1
        latest = 0.0
        for sf, offset in self.members.items():
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


def max_min_rates(
    demands: Dict[object, float],
    constraints: List[Tuple[float, List[object]]],
) -> Dict[object, float]:
    """Progressive-filling max-min fair allocation.

    ``demands`` maps a flow key to its offered rate; each constraint is
    ``(capacity_bps, member_keys)``.  Rates rise uniformly until a flow
    reaches its demand or a constraint saturates (freezing its active
    members).  Returns the per-key allocated rate.
    """
    rates = {key: 0.0 for key in demands}
    active = set(demands)
    cons = [(cap, [k for k in keys if k in demands]) for cap, keys in constraints]
    eps = 1e-9
    while active:
        delta = min(demands[k] - rates[k] for k in active)
        for cap, keys in cons:
            live = [k for k in keys if k in active]
            if not live:
                continue
            slack = cap - sum(rates[k] for k in keys)
            delta = min(delta, slack / len(live))
        if delta > 0:
            for k in active:
                rates[k] += delta
        frozen = {k for k in active if rates[k] >= demands[k] - eps}
        for cap, keys in cons:
            if any(k in active for k in keys):
                if cap - sum(rates[k] for k in keys) <= cap * eps:
                    frozen.update(k for k in keys if k in active)
        if not frozen:
            break  # defensive: should be unreachable
        active -= frozen
    return rates


class FluidRegion:
    """Flow-level fast-forward attached to a :class:`Simulator`.

    Opt-in (``build_livesec_network(..., fluid=True)``); the region is
    inert until the first :class:`TrafficFlow` registers.  A periodic
    governor then attempts suspension.  The run loop knows nothing of
    it: a suspended flow costs nothing per event, whoever reads a clock
    it drives asks its :class:`ClockShare`, and whatever reads a
    counter calls :meth:`flush` first.
    """

    def __init__(
        self,
        sim,
        max_utilization: float = 0.95,
        congestion: str = "refuse",
    ):
        if congestion not in ("refuse", "rate"):
            raise ValueError(f"unknown congestion policy {congestion!r}")
        if not 0.0 < max_utilization <= 1.0:
            raise ValueError(
                f"max_utilization must be in (0, 1] (got {max_utilization})"
            )
        self.sim = sim
        self.max_utilization = max_utilization
        self.governor_interval_s = 0.05
        self.congestion = congestion
        self.flows: Dict[object, None] = {}
        # In suspension order, which is settle order (and so what fixes
        # the float sum in ``busy_time``).
        self._suspended: Dict[object, _SuspendedFlow] = {}
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
        for flow in [f for f in self.flows if not f.running]:
            self.flow_stopped(flow)
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
        refuses the whole attempt under the ``refuse`` policy.
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

        demands: Dict[object, float] = {}
        members: Dict[object, List[object]] = {}
        capacity: Dict[object, float] = {}
        for flow, walk in candidates:
            demands[flow] = flow.rate_bps
            for plan in walk.hops:
                medium = plan.medium
                if medium is not None:
                    key = ("air", id(medium))
                    capacity[key] = medium.bandwidth_bps
                else:
                    key = ("dir", id(plan.link), id(plan.from_port))
                    capacity[key] = plan.link.bandwidth_bps
                members.setdefault(key, []).append(flow)
        for sf in self._suspended.values():
            demands[sf.flow] = sf.rate_bps
            for plan in sf.walk.hops:
                medium = plan.medium
                key = (("air", id(medium)) if medium is not None
                       else ("dir", id(plan.link), id(plan.from_port)))
                capacity.setdefault(
                    key,
                    medium.bandwidth_bps if medium is not None
                    else plan.link.bandwidth_bps,
                )
                members.setdefault(key, []).append(sf.flow)

        constraints = [
            (capacity[key] * self.max_utilization, flows)
            for key, flows in members.items()
        ]
        rates = max_min_rates(demands, constraints)
        if self.congestion == "refuse":
            for flow, _walk in candidates:
                if rates[flow] < demands[flow] * (1.0 - 1e-9):
                    self._refuse("congested")
                    return

        now = self.sim.now
        if not self._suspended:
            self._saving_since = now
        for flow, walk in candidates:
            if flow._pending is not None:
                flow._pending.cancel()
                flow._pending = None
            sf = _SuspendedFlow(flow, walk, rates[flow])
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
            clock.fluid.members[sf] = offset
        for sw, src_mac, _in_learn, offset in sf.walk.legacy_hits:
            if src_mac not in sw.fluid_macs:
                sw.fluid_macs[src_mac] = ClockShare(self)
            sw.fluid_macs[src_mac].members[sf] = offset

    def _unbind(self, sf: _SuspendedFlow, everyone: bool = False) -> None:
        """Take ``sf`` off every clock it drives, O(1) a clock.  With
        ``everyone`` the other members are leaving too, so each share
        is dropped whole."""
        for clock, _offset in sf.clocks + sf.entry_clocks:
            if everyone:
                clock.fluid = None
            elif clock.fluid is not None:  # (an evicted entry's is gone)
                clock.fluid.members.pop(sf, None)
                if not clock.fluid.members:
                    clock.fluid = None
        for sw, src_mac, _in_learn, _offset in sf.walk.legacy_hits:
            share = sw.fluid_macs.get(src_mac)
            if share is not None:
                share.members.pop(sf, None)
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
            offset += frame.size * 8.0 / link.bandwidth_bps + link.delay_s
            plan = link.fluid_plan(port, offset)
            if (self.congestion == "refuse"
                    and plan.direction.occupancy(now) > 0):
                # A draining drop-tail backlog (e.g. right after an
                # overload subsided) would queue-delay -- or drop --
                # real frames; analytic advance assumes neither.  The
                # "rate" policy models congestion anyway, so only the
                # exactness-preserving policy refuses here.
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
            frame = pkt.make_tcp(
                src.mac, dst_mac, src.ip, flow.dst_ip, flow.sport, flow.dport,
                b"", "", flow.packet_size, vlan=src.vlan,
            )
        else:
            frame = pkt.make_udp(
                src.mac, dst_mac, src.ip, flow.dst_ip, flow.sport, flow.dport,
                b"", flow.packet_size, vlan=src.vlan,
            )
        frame.flow_id = flow.flow_id
        return frame

    # ------------------------------------------------------------------
    # Settling

    def flush(self) -> None:
        """Settle every suspended flow up to now: pay the packets
        emitted since its last settle into the counters along its path
        and store the clocks they moved.

        Called by whatever reads a counter while the event loop runs
        (stats replies, FlowRemoved, link and host accounting, the
        gauges) and by :meth:`Simulator.run` on its way out, so code
        outside the loop always reads settled values.
        """
        self._settle(self._suspended.values())

    def _settle(self, flows) -> None:
        """One settle pass over ``flows`` (suspended, in suspension
        order); a flow with no emission since its last settle costs
        one closed form and nothing else."""
        now = self.sim.now
        paid = 0
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
        flow.packets_sent = count
        flow.bytes_sent += sent * size
        delivered = sent
        if self.congestion == "rate" and sf.rate_bps < flow.rate_bps:
            # Bottleneck thinning: deliver the allocated fraction (with
            # a fractional carry across settles); the remainder goes to
            # the first hop's drop counter.
            exact = sent * sf.rate_bps / flow.rate_bps + sf.residual
            delivered = int(exact)
            sf.residual = exact - delivered
            walk.hops[0].direction.dropped += sent - delivered
        # Emission time of the final synthesized frame: real frames
        # sent after the flow resumes queue behind the analytic
        # traffic, entries idle out and MACs age from its arrival.
        last_t = sf.base + (count - 1) * sf.interval
        for sw, src_mac, in_learn, offset in walk.legacy_hits:
            seen = last_t + offset
            learned = sw.mac_table.get(src_mac)
            if learned is None or seen > learned[1]:
                sw.mac_table[src_mac] = (in_learn, seen)
        if not delivered:
            return
        for clock, offset in sf.clocks:
            end = last_t + offset
            if end > clock.next_free:
                clock.next_free = end
        for entry, offset in sf.entry_clocks:
            seen = last_t + offset
            if seen > entry.last_used_at:
                entry.last_used_at = seen
        delivered_bytes = delivered * size
        for plan in walk.hops:
            busy = delivered * (size * 8.0 / plan.link.bandwidth_bps)
            direction = plan.direction
            direction.tx_packets += delivered
            direction.tx_bytes += delivered_bytes
            direction.busy_time += busy
            port = plan.from_port
            port.tx_packets += delivered
            port.tx_bytes += delivered_bytes
            port = direction.to_port
            port.rx_packets += delivered
            port.rx_bytes += delivered_bytes
            medium = plan.medium
            if medium is not None:
                medium.busy_time += busy
                medium.frames += delivered
        for sw, entry, _offset, exact in walk.of_hits:
            sw.table.record_fluid_hits(entry, delivered, delivered_bytes, exact)
            sw.packets_forwarded += delivered
        dst = walk.dst
        dst.rx_frames += delivered
        dst.rx_bytes += delivered_bytes
        dst.rx_bytes_by_flow[flow.flow_id] += delivered_bytes
        dst.rx_frames_by_flow[flow.flow_id] += delivered

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
