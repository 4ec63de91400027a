"""Unit tests for the discrete-event kernel."""

import random
import sys

import pytest

from repro import build_livesec_network
from repro.net import packet as pkt
from repro.net.host import Host
from repro.net.legacy import LegacySwitch
from repro.net.node import connect
from repro.net.simulator import EventHandle, Simulator, _PeriodicSeries
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


class TestRunAhead:
    def test_the_callback_reads_the_later_instant_and_now_is_restored(
            self, sim):
        seen = []
        sim.post(1.0, lambda: sim.run_ahead(
            25e-6, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.0 + 25e-6]
        assert sim.now == 1.0
        assert sim.events_processed == 1

    def test_what_it_posts_lands_where_the_posted_callback_would(self):
        """``post(d, cb)`` and ``run_ahead(d, cb)`` put ``cb``'s own
        posts at the same instants, in the same order."""
        def drive(forward):
            sim = Simulator()
            fired = []

            def stage(tag):
                sim.post(1e-3, lambda: fired.append((tag, sim.now)))
                sim.post_at(sim.now + 2e-3,
                            lambda: fired.append((tag + "-at", sim.now)))

            sim.post(0.5, forward(sim), 25e-6, stage, "a")
            sim.post(0.5 + 1e-5, forward(sim), 25e-6, stage, "b")
            sim.run()
            return fired

        posted = drive(lambda sim: sim.post)
        assert posted == drive(lambda sim: sim.run_ahead)
        assert [tag for tag, _ in posted] == ["a", "b", "a-at", "b-at"]

    def test_now_is_restored_when_the_callback_raises(self, sim):
        def boom():
            raise KeyError("x")

        with pytest.raises(KeyError):
            sim.run_ahead(1.0, boom)
        assert sim.now == 0.0

    def test_rejects_a_negative_or_nan_delay(self, sim):
        for delay in (-1e-9, float("nan")):
            with pytest.raises(ValueError):
                sim.run_ahead(delay, lambda: None)


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


def forwarding_walk(sim):
    """host -> link -> OF switch -> link -> legacy -> link -> host, with
    the switch's entry installed and the bridge's MAC learned; returns
    the two hosts."""
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
    return src, dst


class TestHandleBudget:
    """Counts, not timings: the per-hop events are fire-and-forget, so a
    handle is built only where somebody keeps it (flow pacing, timers,
    periodic series)."""

    def test_steady_forwarding_builds_handles_only_where_kept(
            self, handles_built, monkeypatch):
        fires = [0]
        fire = _PeriodicSeries.fire

        def counting_fire(series):
            fires[0] += 1
            fire(series)

        monkeypatch.setattr(_PeriodicSeries, "fire", counting_fire)
        net = build_livesec_network(
            "linear", num_as=8, hosts_per_as=4, idle_timeout_s=60.0)
        net.start()
        hosts = [host for host in net.topology.hosts
                 if host is not net.topology.gateway]
        rng = random.Random(0)
        flows = []
        for index in range(64):
            src, dst = rng.sample(hosts, 2)
            flows.append(CbrUdpFlow(
                net.sim, src, dst.ip, rate_bps=100e3, packet_size=250,
                duration_s=0.9, sport=30000 + index,
            ).start(delay_s=index * 1e-3))
        barriers = net.controller.install_pipeline.barriers_sent
        handles, events = handles_built[0], net.sim.events_processed
        fires[0], barriers_before = 0, barriers.value
        net.run(1.0)
        handles = handles_built[0] - handles
        events = net.sim.events_processed - events
        emitted = sum(flow.packets_sent for flow in flows)
        # The budget is a count, not a share of events: one pacing
        # handle per emission, one per periodic fire, and a barrier's
        # flush timer and ack timeout.
        assert events > 10000 and emitted > 2500
        budget = emitted + fires[0] + 2 * (barriers.value - barriers_before)
        assert handles <= budget, (handles, emitted, fires[0])

    def test_a_forwarded_frame_builds_no_handle(self, sim, handles_built):
        """host -> link -> OF switch -> link -> legacy -> link -> host."""
        src, dst = forwarding_walk(sim)
        handles, events = handles_built[0], sim.events_processed
        src.send(pkt.make_udp(src.mac, dst.mac, src.ip, dst.ip, 5, 6), 1)
        sim.run(until=0.01)  # well before the switch's first expiry sweep
        assert dst.rx_frames == 1
        # Three link deliveries; the switch's forwarding delay is run
        # ahead inside the first of them, not an event.
        assert sim.events_processed - events == 3
        assert handles_built[0] == handles


class TestCallBudget:
    """Counts, not timings: the Python functions one frame enters on its
    way host -> OF switch -> legacy -> host (the walk above)."""

    # 31 before the headers were slotted, the port's tx counter became
    # its direction's, Host.receive read the IP header in place and the
    # flow-table lookup became one function.
    CALLS_PER_FRAME = 28

    def test_a_forwarded_frame_enters_at_most_28_functions(self, sim):
        src, dst = forwarding_walk(sim)
        frame = pkt.make_udp(src.mac, dst.mac, src.ip, dst.ip, 5, 6)
        entered = []

        def hook(frame_, event, arg):
            if event == "call":
                entered.append(frame_.f_code.co_qualname)

        # Put back whatever profiler was running (a coverage or call
        # audit hook), not None: it must see the rest of the suite.
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            src.send(frame, 1)
            sim.run(until=0.01)
        finally:
            sys.setprofile(previous)
        assert dst.rx_frames == 1
        assert len(entered) <= self.CALLS_PER_FRAME, entered
        # Each cut stays cut.
        for gone in ("FlowTable._lookup_indexed", "FlowEntry.touch"):
            assert gone not in entered
        # Match.matches's (the entry is a wildcard), not Host.receive's.
        assert entered.count("Ethernet.ip") <= 1


def entered_by(fn, *args):
    """The Python functions ``fn(*args)`` enters, itself included, under
    the same ``sys.setprofile`` hook as :class:`TestCallBudget`."""
    entered = []

    def hook(frame_, event, arg):
        if event == "call":
            entered.append(
                (frame_.f_code.co_qualname, frame_.f_code.co_filename))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return entered


class TestConstructionBudget:
    """Counts, not timings: what building, cloning and classifying one
    frame costs in Python function entries."""

    def test_make_udp_enters_itself_and_three_inits(self):
        entered = entered_by(
            pkt.make_udp, "m1", "m2", "1.1.1.1", "2.2.2.2", 5, 6, b"x",
            250, None, 7,
        )
        names = [name for name, _ in entered]
        assert names[0] == "make_udp"
        # Ethernet, IPv4 and Udp; a dataclass __init__ is compiled from
        # a string, so it carries no module file.
        assert len(names) == 4, names
        assert all(name.endswith("__init__") and filename == "<string>"
                   for name, filename in entered[1:])

    def test_extract_nine_tuple_enters_one(self):
        """Three at the keyword build: ``Ethernet.ip`` and the
        NamedTuple's generated ``__new__`` came on top."""
        frame = pkt.make_udp("m1", "m2", "1.1.1.1", "2.2.2.2", 5, 6)
        assert [name for name, _ in entered_by(
            pkt.extract_nine_tuple, frame)] == ["extract_nine_tuple"]

    def test_lldp_clone_enters_at_most_four_and_never_replace(self):
        """Seven through ``dataclasses.replace``."""
        frame = pkt.make_lldp(chassis_id=3, port_id=2)
        entered = entered_by(frame.clone)
        assert len(entered) <= 4, entered
        assert not any(filename.endswith("dataclasses.py")
                       for _, filename in entered)
