"""Capacity-limited duplex links.

A link models the three properties the evaluation depends on:

* **serialization delay** -- ``size * 8 / bandwidth`` per frame, so a
  100 Mbps access port really saturates at 100 Mbps (experiment E1),
* **propagation delay** -- a fixed one-way latency, so the +10 % latency
  overhead of the extra AS hop is measurable (experiment E5),
* **drop-tail queueing** -- bounded per-direction queues, so overload
  shows up as loss rather than infinite buffering.

Each direction is independent (full duplex).  Per-direction byte
counters feed the link-utilization view of the visualization layer.

The drop-tail queue models the transmit buffer: a frame occupies a
slot from enqueue until its *serialization* finishes, not until it has
also propagated to the far end -- propagation happens on the wire, not
in the buffer.  Occupancy is therefore derived from the queue of
serialization-completion times, pruned lazily against ``now``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, TYPE_CHECKING

from repro.net.packet import Ethernet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.node import Port
    from repro.net.simulator import Simulator


class _Direction:
    """Transmission state for one direction of a duplex link."""

    __slots__ = (
        "to_port",
        "next_free",
        "pending_done",
        "tx_packets",
        "tx_bytes",
        "dropped",
        "busy_time",
        "fluid",
    )

    def __init__(self, to_port: "Port") -> None:
        self.to_port = to_port
        self.next_free = 0.0
        # repro.net.fluid.ClockShare of the suspended flows whose
        # analytic frames serialize here; None when there are none.
        self.fluid = None
        # Serialization-completion times of queued frames, ascending
        # (next_free is monotone).  A slot frees when its frame is
        # fully on the wire -- before propagation completes.
        self.pending_done: Deque[float] = deque()
        self.tx_packets = 0
        self.tx_bytes = 0
        self.dropped = 0
        self.busy_time = 0.0

    def occupancy(self, now: float) -> int:
        """Frames still in the transmit buffer at ``now``."""
        pending = self.pending_done
        while pending and pending[0] <= now:
            pending.popleft()
        return len(pending)


class HopPlan:
    """One hop of a suspended flow's path, as the fluid kernel sees it.

    Built once per suspension by :meth:`Link.fluid_plan`.
    ``end_offset_s`` is when a frame emitted at ``t`` finishes
    *serializing* on this hop (arrival at the far end minus
    propagation) -- where the analytic traffic moves the direction's
    ``next_free`` clock, so a packet-level frame sent while a
    suspended flow's frame is on the wire (background chatter, a new
    flow's first punt, a materialized resume) waits behind it exactly
    as it would have behind the real frame.  ``medium`` is the shared
    radio for wireless hops (None on wired links), whose clock moves
    too.  Nothing is stored while the flow is suspended: ``transmit``
    asks the direction's share, and a settle
    (:meth:`repro.net.fluid.FluidRegion.flush`) stores the clock and
    pays the counters the same traffic is owed.
    """

    __slots__ = ("link", "direction", "from_port", "medium", "end_offset_s")


class Link:
    """A duplex point-to-point link between two ports.

    Use :func:`repro.net.node.connect` rather than constructing
    directly -- it allocates the ports.  Construction wires both ends:
    each port gets the link and the direction it transmits into, so
    the per-frame path starts from ``port.direction`` with no lookup.
    """

    def __init__(
        self,
        sim: "Simulator",
        end_a: "Port",
        end_b: "Port",
        bandwidth_bps: float,
        delay_s: float,
        queue_packets: int,
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive (got {bandwidth_bps})")
        if delay_s < 0:
            raise ValueError(f"delay must be non-negative (got {delay_s})")
        self.sim = sim
        self.end_a = end_a
        self.end_b = end_b
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.queue_packets = queue_packets
        self.up = True
        for port, peer in ((end_a, end_b), (end_b, end_a)):
            port.link = self
            port.direction = _Direction(peer)

    def _direction(self, from_port: "Port") -> _Direction:
        """The direction transmitting out of ``from_port``."""
        if from_port is not self.end_a and from_port is not self.end_b:
            raise ValueError(f"{from_port} is not an end of {self}")
        return from_port.direction

    def other_end(self, port: "Port") -> "Port":
        return self._direction(port).to_port

    def transmit(self, from_port: "Port", frame: Ethernet) -> bool:
        """Serialize ``frame`` out of ``from_port`` toward the peer.

        Returns False when the frame is dropped (link down or the
        direction's queue is full).
        """
        if not self.up:
            from_port.tx_drops += 1
            return False
        direction = from_port.direction
        sim = self.sim
        now = sim.now
        # _Direction.occupancy, inlined: this is the per-hop hot path.
        pending = direction.pending_done
        while pending and pending[0] <= now:
            pending.popleft()
        if len(pending) >= self.queue_packets:
            direction.dropped += 1
            from_port.tx_drops += 1
            return False

        size = frame.size
        tx_time = size * 8.0 / self.bandwidth_bps
        done = direction.next_free
        if direction.fluid is not None:
            # A suspended flow's frame may still be serializing.
            busy = direction.fluid.latest(now, pending=True)
            if busy > done:
                done = busy
        if done < now:
            done = now
        done += tx_time
        direction.next_free = done
        pending.append(done)
        direction.busy_time += tx_time
        direction.tx_packets += 1
        direction.tx_bytes += size
        sim.post_at(
            done + self.delay_s, self._deliver, frame, direction.to_port
        )
        return True

    def _deliver(self, frame: Ethernet, to_port: "Port") -> None:
        # The queue slot was released when serialization finished (see
        # _Direction.occupancy); delivery only hands the frame over.
        if not self.up or not to_port.enabled:
            return
        to_port.rx_packets += 1
        to_port.rx_bytes += frame.size
        to_port.node.receive(frame, to_port.number)

    def fluid_plan(self, from_port: "Port", arrival_offset_s: float) -> "HopPlan":
        """This hop of a path the fluid fast-forward kernel suspends.

        ``arrival_offset_s`` is when a frame emitted at ``t`` arrives
        at the far end.  Queue occupancy is untouched: fluid mode only
        runs while the traversed links have headroom, so analytic
        traffic never queues.
        """
        plan = HopPlan()
        plan.link = self
        plan.direction = self._direction(from_port)
        plan.from_port = from_port
        plan.medium = None
        plan.end_offset_s = arrival_offset_s - self.delay_s
        return plan

    def stats(self, from_port: "Port") -> dict:
        """Counters for the direction transmitting out of ``from_port``."""
        direction = self._direction(from_port)
        self.sim.settle_fluid()
        return {
            "tx_packets": direction.tx_packets,
            "tx_bytes": direction.tx_bytes,
            "dropped": direction.dropped,
            "busy_time": direction.busy_time,
            "queued": direction.occupancy(self.sim.now),
        }

    def utilization(self, from_port: "Port", window_start: float) -> float:
        """Fraction of capacity used since ``window_start``.

        Computed from accumulated busy time; callers snapshot
        ``stats()['busy_time']`` at window boundaries for windowed
        readings.
        """
        elapsed = self.sim.now - window_start
        if elapsed <= 0:
            return 0.0
        self.sim.settle_fluid()
        busy = self._direction(from_port).busy_time
        return min(1.0, busy / elapsed)

    def set_up(self, up: bool) -> None:
        """Administratively raise or fail the link (fault injection)."""
        changed = self.up != up
        self.up = up
        if changed:
            fluid = self.sim.fluid
            if fluid is not None:
                # Suspended flows may traverse this link (a failure
                # invalidates their paths) or a restored link may
                # change legacy forwarding: resume packet fidelity.
                fluid.materialize_all("link-admin")

    def __repr__(self) -> str:
        return (
            f"<Link {self.end_a.node.name}:{self.end_a.number}"
            f"<->{self.end_b.node.name}:{self.end_b.number}"
            f" {self.bandwidth_bps / 1e6:.0f}Mbps>"
        )
