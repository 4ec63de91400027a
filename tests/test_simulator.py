"""Unit tests for the discrete-event kernel."""

import pytest



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
