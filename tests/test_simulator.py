"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro import build_livesec_network
from repro.net import packet as pkt
from repro.net.host import Host
from repro.net.legacy import LegacySwitch
from repro.net.node import connect
from repro.net.simulator import EventHandle
from repro.openflow.actions import Output
from repro.openflow.flowtable import FlowEntry
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch
from repro.workloads.flows import CbrUdpFlow


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "latest")
        sim.run()
        assert fired == ["early", "late", "latest"]

    def test_simultaneous_events_fire_in_insertion_order(self, sim):
        fired = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(4.0, fired.append, "x")
        sim.run()
        assert sim.now == 4.0 and fired == ["x"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_times_rejected(self, sim):
        """A NaN compares false both ways; queued, it would silently
        break the heap invariant for every event around it."""
        nan = float("nan")
        with pytest.raises(ValueError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(nan, lambda: None)
        with pytest.raises(ValueError):
            sim.every(1.0, lambda: None, start=nan)
        assert sim.pending() == 0

    def test_events_scheduled_during_run_fire(self, sim):
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_callback_args_passed(self, sim):
        result = {}
        sim.schedule(1.0, result.__setitem__, "key", "value")
        sim.run()
        assert result == {"key": "value"}


class TestPost:
    """``post`` / ``post_at``: ``schedule`` / ``schedule_at`` minus the
    handle."""

    def test_post_fires_with_args_and_returns_nothing(self, sim):
        result = {}
        assert sim.post(1.0, result.__setitem__, "a", 1) is None
        assert sim.post_at(2.0, result.__setitem__, "b", 2) is None
        assert sim.pending() == 2
        sim.run()
        assert result == {"a": 1, "b": 2}
        assert sim.now == 2.0 and sim.events_processed == 2

    def test_ties_are_fifo_across_both_kinds(self, sim):
        fired = []
        sim.post(1.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")
        sim.post_at(1.0, fired.append, "c")
        sim.schedule_at(1.0, fired.append, "d")
        sim.post(1.0, fired.append, "e")
        sim.run()
        assert fired == ["a", "b", "c", "d", "e"]

    def test_bad_times_rejected_like_schedule(self, sim):
        sim.post(1.0, lambda: None)
        sim.run()
        nan = float("nan")
        for bad in (-0.1, nan):
            with pytest.raises(ValueError):
                sim.post(bad, lambda: None)
        for bad in (0.5, nan):
            with pytest.raises(ValueError):
                sim.post_at(bad, lambda: None)
        assert sim.pending() == 0

    def test_until_boundary_includes_an_event_due_exactly_then(self, sim):
        fired = []
        sim.post_at(2.0, fired.append, "on")
        sim.post_at(2.0 + 1e-9, fired.append, "after")
        sim.run(until=2.0)
        assert fired == ["on"] and sim.now == 2.0
        sim.run()
        assert fired == ["on", "after"]

    def test_max_events_counts_past_reaped_tombstones(self, sim):
        fired = []
        dead = [sim.schedule(1.0, fired.append, "dead") for _ in range(3)]
        for index in range(4):
            sim.post(2.0, fired.append, index)
        for handle in dead:
            handle.cancel()
        assert sim.pending() == 4
        sim.run(max_events=2)
        assert fired == [0, 1] and sim.pending() == 2

    def test_compaction_keeps_handle_less_entries(self, sim):
        fired = []
        doomed = [sim.schedule(1.0, fired.append, "dead") for _ in range(90)]
        for index in range(30):
            sim.post(1.0, fired.append, index)
        for handle in doomed:
            handle.cancel()
        assert sim.heap_compactions >= 1
        assert sim.pending() == 30
        sim.run()
        assert fired == list(range(30))


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_one_of_many(self, sim):
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        drop = sim.schedule(1.0, fired.append, "drop")
        drop.cancel()
        sim.run()
        assert fired == ["keep"]
        assert not keep.cancelled


class TestRunUntil:
    def test_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run(until=2.0)
        assert fired == ["in"]
        assert sim.now == 2.0

    def test_until_advances_clock_with_empty_queue(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_resume_after_until(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "later")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["later"]

    def test_until_in_the_past_never_rewinds_the_clock(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "later")
        sim.run(until=2.0)
        sim.run(until=1.0)  # a later event is pending: the break branch
        assert sim.now == 2.0
        assert fired == []
        sim.run()
        assert fired == ["later"] and sim.now == 5.0
        sim.run(until=3.0)  # queue drained: the else branch
        assert sim.now == 5.0

    def test_max_events_bound(self, sim):
        fired = []
        for index in range(10):
            sim.schedule(float(index + 1), fired.append, index)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self, sim):
        for index in range(5):
            sim.schedule(float(index + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestReentry:
    def test_run_inside_a_callback_raises(self, sim):
        """The loop keeps the heap and its counters in locals; a nested
        loop would fire events behind its back."""
        fired = []
        errors = []

        def nested():
            try:
                sim.run(until=10.0)
            except RuntimeError as error:
                errors.append(error)

        sim.schedule(1.0, nested)
        sim.post(2.0, fired.append, "after")
        sim.run()
        assert len(errors) == 1
        # The refused call fired nothing and left the outer loop sound.
        assert fired == ["after"]
        assert sim.now == 2.0 and sim.events_processed == 2

    def test_run_is_callable_again_after_a_callback_raises(self, sim):
        fired = []

        def boom():
            raise KeyError("boom")

        sim.post(1.0, boom)
        sim.post(2.0, fired.append, "later")
        with pytest.raises(KeyError):
            sim.run()
        sim.run()
        assert fired == ["later"]


class TestPeriodic:
    def test_every_fires_repeatedly(self, sim):
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_every_cancel_stops_series(self, sim):
        ticks = []
        handle = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, handle.cancel)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_every_custom_start(self, sim):
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), start=0.25)
        sim.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_every_rejects_nonpositive_interval(self, sim):
        with pytest.raises(ValueError):
            sim.every(0.0, lambda: None)

    def test_pending_counts_uncancelled(self, sim):
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending() == 1


@pytest.fixture
def handles_built(monkeypatch):
    """A one-item list counting every ``EventHandle`` constructed
    (series handles included) while the test runs."""
    built = [0]
    construct = EventHandle.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        construct(self, *args, **kwargs)

    monkeypatch.setattr(EventHandle, "__init__", counting)
    return built


class TestHandleBudget:
    """Counts, not timings: the per-hop events are fire-and-forget, so a
    handle is built only where somebody keeps it (flow pacing, timers,
    periodic series)."""

    def test_steady_forwarding_builds_a_handle_for_a_fifth_of_events_at_most(
            self, handles_built):
        net = build_livesec_network(
            "linear", num_as=8, hosts_per_as=4, idle_timeout_s=60.0)
        net.start()
        hosts = [host for host in net.topology.hosts
                 if host is not net.topology.gateway]
        rng = random.Random(0)
        for index in range(64):
            src, dst = rng.sample(hosts, 2)
            CbrUdpFlow(
                net.sim, src, dst.ip, rate_bps=100e3, packet_size=250,
                duration_s=0.9, sport=30000 + index,
            ).start(delay_s=index * 1e-3)
        handles, events = handles_built[0], net.sim.events_processed
        net.run(1.0)
        handles = handles_built[0] - handles
        events = net.sim.events_processed - events
        assert events > 15000
        assert handles / events <= 0.2, (handles, events)

    def test_a_forwarded_frame_builds_no_handle(self, sim, handles_built):
        """host -> link -> OF switch -> link -> legacy -> link -> host."""
        src = Host(sim, "src", pkt.mac_address(1), pkt.ip_address(1))
        dst = Host(sim, "dst", pkt.mac_address(2), pkt.ip_address(2))
        access = OpenFlowSwitch(sim, "as", dpid=1)
        fabric = LegacySwitch(sim, "ls", bridge_id=1, stp_enabled=False)
        connect(sim, src, access, port_b=1)
        connect(sim, access, fabric, port_a=2, port_b=1)
        connect(sim, fabric, dst, port_a=2)
        access.table.add(
            FlowEntry(match=Match(in_port=1), actions=(Output(2),)), sim.now)
        fabric.mac_table[dst.mac] = (2, sim.now)

        handles, events = handles_built[0], sim.events_processed
        src.send(pkt.make_udp(src.mac, dst.mac, src.ip, dst.ip, 5, 6), 1)
        sim.run(until=0.01)  # well before the switch's first expiry sweep
        assert dst.rx_frames == 1
        # Three link deliveries and the switch's forwarding delay.
        assert sim.events_processed - events == 4
        assert handles_built[0] == handles
