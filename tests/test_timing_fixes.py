"""Regression tests for the data-path timing bugfixes that shipped
with the fluid fast-forward kernel.

* Drop-tail queue slots free at *serialization* end, not delivery:
  holding a buffer slot across propagation made long-haul links drop
  frames their transmit buffer had already put on the wire.
* Flow pacing is anchored to the start time (``paced_at``), so float
  error no longer accumulates packet-by-packet over long runs.
* Cancelled events are counted and compacted instead of rotting in the
  heap, and ``Simulator.pending()`` is O(1).
* ``Simulator.every(start=..., jitter=...)`` raises instead of
  silently dropping the jitter.
"""

import pytest

from repro.net import packet as pkt
from repro.net.node import Node, connect
from repro.net.simulator import Simulator
from repro.net.wifi import AirMedium, WirelessLink
from repro.workloads.flows import CbrUdpFlow


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append((self.sim.now, frame, in_port))


def frame_of_size(size: int) -> pkt.Ethernet:
    return pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 1, 2, size=size)


class TestQueueSlotRelease:
    """S1: the buffer slot frees when serialization ends; propagation
    happens on the wire, not in the buffer."""

    def test_slot_freed_before_propagation_completes(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        # 10 ms serialization, 1 s propagation, a single buffer slot.
        link = connect(sim, a, b, bandwidth_bps=1e6, delay_s=1.0,
                       queue_packets=1)
        a.send(frame_of_size(1250), 1)
        # The first frame is still propagating at t=0.5 but finished
        # serializing at t=0.01 -- its slot must be free again.
        sim.schedule_at(0.5, a.send, frame_of_size(1250), 1)
        sim.run()
        assert len(b.received) == 2
        assert link.stats(a.port(1))["dropped"] == 0
        assert a.port(1).tx_drops == 0

    def test_still_drops_while_serializing(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = connect(sim, a, b, bandwidth_bps=1e6, delay_s=1.0,
                       queue_packets=1)
        # Three back-to-back sends: slot taken by #1 (serializing),
        # #2 arrives while #1 still serializes and is dropped, as is #3.
        for _ in range(3):
            a.send(frame_of_size(1250), 1)
        sim.run()
        assert len(b.received) == 1
        assert link.stats(a.port(1))["dropped"] == 2

    def test_occupancy_tracks_serialization_window(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        link = connect(sim, a, b, bandwidth_bps=1e6, delay_s=1.0,
                       queue_packets=10)
        a.send(frame_of_size(1250), 1)  # serializes over [0, 10ms]
        direction = a.port(1).direction
        assert direction.occupancy(0.005) == 1
        assert direction.occupancy(0.5) == 0  # on the wire, slot free

    def test_wireless_slot_freed_at_airtime_end(self, sim):
        a, b = Sink(sim, "a"), Sink(sim, "b")
        medium = AirMedium(bandwidth_bps=1e6)
        link = WirelessLink(sim, a.port(1), b.port(1), medium,
                            delay_s=1.0, queue_packets=1)
        a.port(1).link = link
        b.port(1).link = link
        a.send(frame_of_size(1250), 1)
        sim.schedule_at(0.5, a.send, frame_of_size(1250), 1)
        sim.run()
        assert len(b.received) == 2
        assert link.stats(a.port(1))["dropped"] == 0


class TestAbsolutePacing:
    """S2: emissions sit on the ``start + k * interval`` grid exactly."""

    def test_long_flow_emits_exact_packet_count(self, small_net):
        net = small_net
        hosts = [h for h in net.topology.hosts if h is not net.topology.gateway]
        src, dst = hosts[0], hosts[1]
        # 10 Mbps / 1500 B -> 1.2 ms interval; over 60 s the old
        # schedule-relative pacing accumulated float error packet by
        # packet.  The count must match the emission grid exactly.
        flow = CbrUdpFlow(net.sim, src, dst.ip, rate_bps=10e6,
                          packet_size=1500, duration_s=60.0).start()
        net.run(62.0)
        expected = 0
        while flow.paced_at(expected) < flow._stop_at:
            expected += 1
        assert flow.packets_sent == expected
        assert abs(flow.packets_sent - 50000) <= 1
        assert flow.bytes_sent == flow.packets_sent * 1500

    def test_paced_at_is_anchored_to_start(self, small_net):
        net = small_net
        hosts = [h for h in net.topology.hosts if h is not net.topology.gateway]
        flow = CbrUdpFlow(net.sim, hosts[0], hosts[1].ip, rate_bps=8e6,
                          packet_size=1000, duration_s=1.0).start()
        net.run(0.5)
        base = flow._started_at
        for k in (0, 1, 7, 100000):
            assert flow.paced_at(k) == base + k * flow.interval_s


class TestCancelledEventAccounting:
    """S3: cancellation churn is counted, compacted, and O(1) to query."""

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i * 1e-6, lambda: None)
                   for i in range(50)]
        for handle in handles[:30]:
            handle.cancel()
        assert sim.pending() == 20

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert sim.pending() == 1

    def test_heap_compacts_under_churn(self):
        sim = Simulator()
        handles = [sim.schedule(1.0 + i * 1e-6, lambda: None)
                   for i in range(1000)]
        for handle in handles[:900]:
            handle.cancel()
        assert sim.heap_compactions >= 1
        # The dead handles were actually swept, not just counted.
        assert len(sim._queue) < 300
        assert sim.pending() == 100
        sim.run()
        assert sim.events_processed == 100

    def test_cancel_after_fire_does_not_skew_counter(self):
        sim = Simulator()
        handle = sim.schedule(0.5, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # already fired; must not underflow accounting
        assert sim.pending() == 0


class TestEveryJitterValidation:
    """S4: an explicit start plus a jitter is a contradiction."""

    def test_jitter_with_explicit_start_raises(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.every(1.0, lambda: None, start=5.0, jitter=0.25)

    def test_jitter_offsets_default_start(self):
        sim = Simulator()
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now), jitter=0.25)
        sim.run(until=3.0)
        assert fired == [1.25, 2.25]

    def test_explicit_start_without_jitter_ok(self):
        sim = Simulator()
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now), start=0.5)
        sim.run(until=2.6)
        assert fired == [0.5, 1.5, 2.5]
