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

What the packets would have written is two kinds of state.  *Clocks*
-- the flow's emission cursor, ``next_free`` on every traversed wire
and radio, ``last_used_at`` on every hit flow entry, the legacy MAC
refresh time -- are what packet-level code acts on, so they are
advanced before every event.  *Counters* -- tx/rx/busy/drop totals,
entry and table hit counts, delivered bytes -- are additive and only
read by cold paths, so an advance just notes how many packets a flow
owes them and :meth:`FluidRegion.flush` pays the whole path at once,
from the readers themselves and whenever ``Simulator.run`` returns.

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
  path.  Crossing a cap resumes the flow at exactly the emission where
  the oracle would re-ARP / re-flood / re-punt.
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

import heapq
import math
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
    """A flow whose emit events have been replaced by closed forms."""

    __slots__ = ("flow", "walk", "base", "interval", "size", "stop_at",
                 "max_packets", "rate_bps", "residual", "heap_t",
                 "wire_clocks", "entry_clocks", "owed_sent",
                 "owed_delivered")

    def __init__(self, flow, walk: _Walk, rate_bps: float) -> None:
        self.flow = flow
        self.walk = walk
        self.base = flow._started_at
        self.interval = flow.interval_s
        self.size = flow.packet_size
        self.stop_at = flow._stop_at
        self.max_packets = flow.max_packets
        self.rate_bps = rate_bps
        self.residual = 0.0  # fractional delivery carry (rate policy)
        self.heap_t = 0.0  # emission-heap key; stale entries ignored
        # What every advance moves: (direction or radio, when a frame
        # emitted at t has finished serializing there) and (flow entry,
        # when it arrives at that table).
        self.wire_clocks = [(p.direction, p.end_offset_s) for p in walk.hops]
        self.wire_clocks += [
            (p.medium, p.end_offset_s) for p in walk.hops
            if p.medium is not None
        ]
        self.entry_clocks = [(hit[1], hit[2]) for hit in walk.of_hits]
        # Packets advanced but not yet paid into the path's counters.
        self.owed_sent = 0
        self.owed_delivered = 0


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
    governor then attempts suspension; the simulator's run loop calls
    :meth:`advance_to` before every event pop so all callbacks act on
    clocks consistent with the packets that "would have" flown, and
    whatever reads a counter calls :meth:`flush` first.
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
        self._suspended: Dict[object, _SuspendedFlow] = {}
        self._tcp_active: Dict[object, None] = {}
        self._governor = None
        self._advanced_to = 0.0
        # Min-heap of (next emission time, seq, suspended flow):
        # advance_to only touches flows with emissions due before the
        # horizon, so the per-event cost scales with traffic crossed,
        # not with the suspended population.  Entries go stale when a
        # flow resumes or re-advances; pops discard them lazily.
        self._emissions: List[tuple] = []
        self._heap_seq = 0
        # Flows holding owed packets, in first-advance order (flush
        # order is what fixes the float sum in ``busy_time``).
        self._owing: List[_SuspendedFlow] = []
        # Observability.
        self.fastforwards = 0
        self.time_saved_s = 0.0
        self.packets_synthesized = 0
        self.resumes = 0
        self.advances = 0
        self.settles = 0
        self.refusals: Dict[str, int] = {}
        self.materializations: Dict[str, int] = {}
        sim.attach_fluid(self)

    # ------------------------------------------------------------------
    # Kernel interface

    @property
    def active(self) -> bool:
        return bool(self._suspended)

    def advance_to(self, horizon: float) -> bool:
        """Advance every suspended flow's clocks up to ``horizon``.

        Called by the run loop before each event pop (and at the end of
        a bounded run); the counters the same packets are owed wait for
        :meth:`flush`.  Returns True when a flow crossed a validity
        cap and a resumption event earlier than the pending head may
        now exist -- the caller must re-examine its queue.
        """
        if not self._suspended:
            return False
        if horizon <= self._advanced_to:
            return False
        rescheduled = False
        synthesized = 0
        heap = self._emissions
        while heap and heap[0][0] < horizon:
            t, _seq, sf = heapq.heappop(heap)
            if self._suspended.get(sf.flow) is not sf or sf.heap_t != t:
                continue  # resumed or already re-advanced; stale entry
            emitted, keep = self._advance_flow(sf, horizon)
            synthesized += emitted
            if keep:
                self._push_emission(sf)
            else:
                next_t = self._resume(sf)
                if next_t < horizon:
                    rescheduled = True
        self.time_saved_s += horizon - self._advanced_to
        self._advanced_to = horizon
        if synthesized:
            self.packets_synthesized += synthesized
            self.fastforwards += 1
        return rescheduled

    def _push_emission(self, sf: _SuspendedFlow) -> None:
        sf.heap_t = sf.base + sf.flow.packets_sent * sf.interval
        self._heap_seq += 1
        heapq.heappush(self._emissions, (sf.heap_t, self._heap_seq, sf))

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
        sf = self._suspended.pop(flow, None)
        if sf is not None:
            self._settle(sf)

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
        flows.  Clocks are already consistent (the kernel advanced
        them to the current event's timestamp before dispatch); each
        resume settles the flow's counters.
        """
        if not self._suspended:
            return
        self.advance_to(self.sim.now)  # no-op unless called outside run()
        for sf in list(self._suspended.values()):
            self._resume(sf)
        self._emissions.clear()
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
        candidates: List[Tuple[object, _Walk]] = []
        for flow in self.flows:
            if flow in self._suspended:
                continue
            walk, reason = self._walk(flow)
            if walk is None:
                self._refuse(reason)
                return
            candidates.append((flow, walk))
        if not candidates:
            return

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

        for flow, walk in candidates:
            if flow._pending is not None:
                flow._pending.cancel()
                flow._pending = None
            sf = _SuspendedFlow(flow, walk, rates[flow])
            self._suspended[flow] = sf
            self._push_emission(sf)
        self._advanced_to = self.sim.now

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
    # Analytic advance

    def _advance_flow(self, sf: _SuspendedFlow, horizon: float):
        """Synthesize ``sf``'s emissions strictly before ``horizon``.

        Returns ``(packets_emitted, keep_suspended)``.  The emission
        grid is exactly :meth:`TrafficFlow.paced_at`; closed-form count
        first, then a fix-up loop so float rounding can never disagree
        with the per-packet expression the oracle evaluates.
        """
        flow = sf.flow
        walk = sf.walk
        base, interval = sf.base, sf.interval
        k0 = flow.packets_sent
        bound = horizon
        if sf.stop_at is not None and sf.stop_at < bound:
            bound = sf.stop_at
        if walk.valid_excl < bound:
            bound = walk.valid_excl
        k_cap = sf.max_packets if sf.max_packets is not None else None

        k_end = int(math.floor((min(bound, walk.valid_incl) - base) / interval)) + 1
        if k_end < k0:
            k_end = k0
        if k_cap is not None and k_end > k_cap:
            k_end = k_cap
        while k_end > k0:
            t = base + (k_end - 1) * interval
            if t < bound and t <= walk.valid_incl:
                break
            k_end -= 1
        while k_cap is None or k_end < k_cap:
            t = base + k_end * interval
            if t < bound and t <= walk.valid_incl:
                k_end += 1
            else:
                break

        emitted = k_end - k0
        if emitted > 0:
            self.advances += 1
            flow.packets_sent = k_end
            delivered = emitted
            if self.congestion == "rate" and sf.rate_bps < flow.rate_bps:
                # Bottleneck thinning: deliver the allocated fraction
                # (with a fractional carry across advances); the
                # remainder is owed to the first hop's drop counter.
                exact = emitted * sf.rate_bps / flow.rate_bps + sf.residual
                delivered = int(exact)
                sf.residual = exact - delivered
            if not sf.owed_sent:
                self._owing.append(sf)
            sf.owed_sent += emitted
            sf.owed_delivered += delivered
            # Emission time of the final synthesized frame: real frames
            # sent right after a fast-forward queue behind the analytic
            # traffic, entries idle out and MACs age from its arrival.
            last_t = base + (k_end - 1) * interval
            if delivered > 0:
                for clock, offset in sf.wire_clocks:
                    end = last_t + offset
                    if end > clock.next_free:
                        clock.next_free = end
                for entry, offset in sf.entry_clocks:
                    seen = last_t + offset
                    if seen > entry.last_used_at:
                        entry.last_used_at = seen
            for sw, src_mac, in_learn, offset in walk.legacy_hits:
                sw.mac_table[src_mac] = (in_learn, last_t + offset)

        # Keep the flow suspended only while the *next* emission is
        # bounded by the horizon alone; any other boundary (stop, cap,
        # validity) hands control back to the oracle's emit path, which
        # re-ARPs / re-punts / stops exactly as the packet kernel would.
        t_next = base + k_end * interval
        if k_cap is not None and k_end >= k_cap:
            return emitted, False
        if sf.stop_at is not None and t_next >= sf.stop_at:
            return emitted, False
        if t_next >= walk.valid_excl or t_next > walk.valid_incl:
            return emitted, False
        return emitted, True

    # ------------------------------------------------------------------
    # Deferred counters

    def flush(self) -> None:
        """Pay every owed packet into the counters along its path.

        Called by whatever reads a counter while the event loop runs
        (stats replies, FlowRemoved, link and host accounting, the
        gauges) and by :meth:`Simulator.run` on its way out, so code
        outside the loop always reads settled values.
        """
        for sf in self._owing:
            self._settle(sf)
        self._owing.clear()

    def _settle(self, sf: _SuspendedFlow) -> None:
        sent = sf.owed_sent
        if not sent:
            return
        delivered = sf.owed_delivered
        sf.owed_sent = sf.owed_delivered = 0
        self.settles += 1
        flow = sf.flow
        walk = sf.walk
        size = sf.size
        flow.bytes_sent += sent * size
        if delivered < sent:
            walk.hops[0].direction.dropped += sent - delivered
        if not delivered:
            return
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

    def _resume(self, sf: _SuspendedFlow) -> float:
        """Hand a flow back to the packet-level emit path."""
        flow = sf.flow
        self._suspended.pop(flow, None)
        self._settle(sf)
        t_next = flow.paced_at(flow.packets_sent)
        flow._pending = self.sim.schedule_at(
            max(self.sim.now, t_next), flow._emit
        )
        self.resumes += 1
        return t_next

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
            "advances": self.advances,
            "settles": self.settles,
            "refusals": dict(self.refusals),
            "materializations": dict(self.materializations),
        }

    def attach_metrics(self, registry) -> None:
        registry.gauge(
            "sim.fluid_fastforwards",
            "advance passes that synthesized at least one packet",
        ).set_function(lambda: float(self.fastforwards))
        registry.gauge(
            "sim.fluid_time_saved_s",
            "sim-seconds covered while flows were suspended",
        ).set_function(lambda: self.time_saved_s)
        registry.gauge(
            "sim.fluid_packets_synthesized",
            "packets accounted analytically instead of event-by-event",
        ).set_function(lambda: float(self.packets_synthesized))
        registry.gauge(
            "sim.fluid_advances", "per-flow analytic back-fills",
        ).set_function(lambda: float(self.advances))
        registry.gauge(
            "sim.fluid_settles",
            "per-flow payments of owed packets into the path's counters",
        ).set_function(lambda: float(self.settles))
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
