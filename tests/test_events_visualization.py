"""Unit tests for the event log, monitoring component and replay."""

import pytest

from repro.core.events import EventKind, EventLog, NetworkEvent
from repro.core.visualization import (
    MonitoringComponent,
    Snapshot,
    render_snapshot,
)
from repro.obs import MetricsRegistry
from tests import oracles


class TestEventLog:
    def test_emit_and_query_by_kind(self):
        log = EventLog()
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1")
        log.emit(2.0, EventKind.HOST_LEAVE, mac="m1")
        log.emit(3.0, EventKind.HOST_JOIN, mac="m2")
        joins = log.query(kind=EventKind.HOST_JOIN)
        assert len(joins) == 2
        assert joins[0].data["mac"] == "m1"

    def test_query_by_time_window(self):
        log = EventLog()
        for t in (1.0, 2.0, 3.0, 4.0):
            log.emit(t, "tick")
        assert len(log.query(since=2.0, until=3.0)) == 2

    def test_query_with_predicate(self):
        log = EventLog()
        log.emit(1.0, "x", value=1)
        log.emit(2.0, "x", value=2)
        hits = log.query(where=lambda e: e.data["value"] > 1)
        assert len(hits) == 1

    def test_subscribers_see_events(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        event = log.emit(1.0, "x")
        assert seen == [event]

    def test_counts_and_tail(self):
        log = EventLog()
        for __ in range(3):
            log.emit(1.0, "a")
        log.emit(2.0, "b")
        assert log.counts_by_kind() == {"a": 3, "b": 1}
        assert [e.kind for e in log.tail(2)] == ["a", "b"]

    def test_events_are_immutable(self):
        event = NetworkEvent(time=1.0, kind="x", data={})
        with pytest.raises(AttributeError):
            event.kind = "y"

    def test_query_empty_log(self):
        log = EventLog()
        assert log.query() == []
        assert log.query(kind="x", since=0.0, until=9.0) == []
        assert log.counts_by_kind() == {}
        assert log.tail(3) == []

    def test_query_since_equals_until_is_inclusive(self):
        log = EventLog()
        log.emit(1.0, "a")
        log.emit(2.0, "b")
        log.emit(2.0, "c")
        log.emit(3.0, "d")
        hits = log.query(since=2.0, until=2.0)
        assert [e.kind for e in hits] == ["b", "c"]

    def test_query_predicate_exception_propagates(self):
        log = EventLog()
        log.emit(1.0, "a", value=1)

        def boom(event):
            raise RuntimeError("predicate failed")

        with pytest.raises(RuntimeError, match="predicate failed"):
            log.query(where=boom)
        # The log itself is unharmed.
        assert len(log) == 1


class TestSegmentation:
    def test_events_span_segments_in_order(self):
        log = EventLog(segment_size=3)
        for i in range(10):
            log.emit(float(i), "tick", i=i)
        assert len(log) == 10
        assert [e.data["i"] for e in log.all()] == list(range(10))
        assert len(log.segment_stats()) == 4

    def test_query_matches_linear_oracle_across_segments(self):
        log = EventLog(segment_size=4)
        for i in range(25):
            log.emit(float(i), "a" if i % 3 else "b", i=i)
        for kwargs in (
            {}, {"kind": "a"}, {"kind": "b"},
            {"since": 5.0, "until": 11.0},
            {"kind": "a", "since": 7.0},
            {"kind": "missing"},
            {"where": lambda e: e.data["i"] % 2 == 0},
        ):
            assert log.query(**kwargs) == oracles.query_linear(log, **kwargs)

    def test_counts_by_kind_consistent_across_rotation(self):
        log = EventLog(segment_size=2)
        for i in range(11):
            log.emit(float(i), "a" if i % 2 else "b")
        assert log.counts_by_kind() == {"a": 5, "b": 6}

    def test_tail_crosses_segment_boundaries(self):
        log = EventLog(segment_size=3)
        for i in range(8):
            log.emit(float(i), "tick", i=i)
        assert [e.data["i"] for e in log.tail(5)] == [3, 4, 5, 6, 7]
        assert [e.data["i"] for e in log.tail(100)] == list(range(8))

    def test_events_after_skips_whole_segments(self):
        log = EventLog(segment_size=3)
        events = [log.emit(float(i), "tick", i=i) for i in range(9)]
        delta = list(log.events_after(events[4].seq))
        assert [e.data["i"] for e in delta] == [5, 6, 7, 8]
        assert list(log.events_after(events[-1].seq)) == []


class TestCompaction:
    def _churn(self, log, upto):
        for i in range(upto):
            log.emit(float(i), EventKind.LINK_LOAD,
                     dpid=1, port=i % 2, utilization=i / 100.0)

    def test_old_segments_collapse_to_last_value_per_key(self):
        log = EventLog(segment_size=4, retention=0)
        self._churn(log, 9)  # two sealed segments + one active
        # Sealed segments hold one event per (dpid, port) key at most.
        stats = log.segment_stats()
        assert stats[0]["compacted"] and stats[1]["compacted"]
        assert stats[0]["events"] == 2 and stats[1]["events"] == 2
        assert log.compacted_events == 4
        # The last value per key is the survivor.
        loads = {}
        for event in log.query(kind=EventKind.LINK_LOAD):
            loads[(event.data["dpid"], event.data["port"])] = \
                event.data["utilization"]
        assert loads == {(1, 0): 0.08, (1, 1): 0.07}

    def test_lifecycle_events_survive_compaction_losslessly(self):
        log = EventLog(segment_size=4, retention=0)
        log.emit(0.0, EventKind.HOST_JOIN, mac="m1", ip=None, dpid=1)
        self._churn(log, 20)
        log.emit(30.0, EventKind.HOST_LEAVE, mac="m1")
        joins = log.query(kind=EventKind.HOST_JOIN)
        leaves = log.query(kind=EventKind.HOST_LEAVE)
        assert len(joins) == 1 and joins[0].data["mac"] == "m1"
        assert len(leaves) == 1

    def test_counts_by_kind_tracks_compaction(self):
        log = EventLog(segment_size=4, retention=0)
        self._churn(log, 17)
        counts = log.counts_by_kind()
        assert counts[EventKind.LINK_LOAD] == len(
            log.query(kind=EventKind.LINK_LOAD)
        )
        assert counts[EventKind.LINK_LOAD] == len(log)

    def test_retention_none_never_compacts(self):
        log = EventLog(segment_size=2)
        self._churn(log, 20)
        assert len(log) == 20
        assert log.compacted_events == 0

    def test_compaction_metrics_counter(self):
        registry = MetricsRegistry()
        log = EventLog(segment_size=4, retention=0, metrics=registry)
        self._churn(log, 9)
        snap = registry.snapshot()
        assert snap.get("eventlog.compacted_total").value == 4
        assert snap.get("eventlog.events").value == float(len(log))
        assert snap.get("eventlog.segments").value == 3.0

    def test_subscribers_see_every_event_despite_compaction(self):
        log = EventLog(segment_size=4, retention=0)
        seen = []
        log.subscribe(seen.append)
        self._churn(log, 12)
        assert len(seen) == 12


class TestPersistence:
    def test_save_load_roundtrip_preserves_digest(self, tmp_path):
        log = EventLog(segment_size=3)
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip="10.0.0.1", dpid=1)
        log.emit(2.0, EventKind.LINK_LOAD, dpid=1, port=2, utilization=0.25)
        log.emit(3.0, EventKind.FLOW_STEERED, chain=("ids", "l7"))
        path = str(tmp_path / "run.jsonl")
        assert log.save(path) == 3
        loaded = EventLog.load(path)
        assert len(loaded) == 3
        assert loaded.digest() == log.digest()
        assert [e.kind for e in loaded.all()] == [e.kind for e in log.all()]

    def test_stream_mode_matches_save(self, tmp_path):
        streamed = str(tmp_path / "streamed.jsonl")
        saved = str(tmp_path / "saved.jsonl")
        log = EventLog()
        close = log.stream_to(streamed)
        log.emit(1.0, "a", x=1)
        log.emit(2.0, "b", y="z")
        close()
        log.save(saved)
        assert open(streamed).read() == open(saved).read()

    def test_second_stream_sink_rejected(self, tmp_path):
        log = EventLog()
        close = log.stream_to(str(tmp_path / "a.jsonl"))
        with pytest.raises(RuntimeError):
            log.stream_to(str(tmp_path / "b.jsonl"))
        close()

    def test_loaded_log_replays_through_monitoring(self, tmp_path):
        log = EventLog()
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip=None, dpid=1)
        log.emit(5.0, EventKind.HOST_LEAVE, mac="m1")
        path = str(tmp_path / "run.jsonl")
        log.save(path)
        mon = MonitoringComponent(EventLog.load(path))
        assert not mon.snapshot().users["m1"].online
        assert mon.replay(until=3.0).users["m1"].online


@pytest.fixture
def monitor():
    log = EventLog()
    return log, MonitoringComponent(log)


class TestStateMachine:
    def test_switch_and_link_lifecycle(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.SWITCH_JOIN, dpid=1, name="a")
        log.emit(1.0, EventKind.SWITCH_JOIN, dpid=2, name="b")
        log.emit(2.0, EventKind.LINK_UP, src_dpid=1, dst_dpid=2)
        log.emit(2.0, EventKind.LINK_UP, src_dpid=2, dst_dpid=1)
        snap = mon.snapshot()
        assert sorted(snap.switches) == [1, 2]
        assert snap.full_mesh()
        log.emit(3.0, EventKind.SWITCH_LEAVE, dpid=2)
        snap = mon.snapshot()
        assert snap.switches == [1]
        assert snap.links == []

    def test_user_join_apps_and_block(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip="10.0.0.1", dpid=1)
        log.emit(2.0, EventKind.PROTOCOL_IDENTIFIED, user_mac="m1",
                 application="http")
        log.emit(2.5, EventKind.PROTOCOL_IDENTIFIED, user_mac="m1",
                 application="http")  # duplicate app collapsed
        log.emit(3.0, EventKind.ATTACK_DETECTED, user_mac="m1", attack="sqli")
        log.emit(3.0, EventKind.FLOW_BLOCKED, user_mac="m1")
        user = mon.snapshot().users["m1"]
        assert user.applications == ["http"]
        assert user.attacks == 1 and user.blocked

    def test_host_leave_keeps_record_offline(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip=None, dpid=1)
        log.emit(2.0, EventKind.HOST_LEAVE, mac="m1")
        snap = mon.snapshot()
        assert not snap.users["m1"].online
        assert snap.online_users() == []

    def test_element_lifecycle_and_load(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.ELEMENT_ONLINE, mac="e1",
                 service_type="ids", dpid=2)
        log.emit(2.0, EventKind.ELEMENT_LOAD, mac="e1", cpu=0.7, pps=500)
        element = mon.snapshot().elements["e1"]
        assert element.service_type == "ids"
        assert element.cpu == 0.7 and element.pps == 500
        log.emit(3.0, EventKind.ELEMENT_OFFLINE, mac="e1")
        assert not mon.snapshot().elements["e1"].online

    def test_link_load_latest_value_wins(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.LINK_LOAD, dpid=1, port=2, utilization=0.1)
        log.emit(2.0, EventKind.LINK_LOAD, dpid=1, port=2, utilization=0.8)
        assert mon.snapshot().link_loads[(1, 2)] == 0.8

    def test_host_move_updates_dpid(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip=None, dpid=1)
        log.emit(2.0, EventKind.HOST_MOVE, mac="m1", dpid=3)
        assert mon.snapshot().users["m1"].dpid == 3


class TestReplay:
    def test_replay_reconstructs_past(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip=None, dpid=1)
        log.emit(5.0, EventKind.HOST_LEAVE, mac="m1")
        past = mon.replay(until=3.0)
        assert past.users["m1"].online
        now = mon.replay()
        assert not now.users["m1"].online

    def test_replay_series_is_incremental(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip=None, dpid=1)
        log.emit(3.0, EventKind.HOST_JOIN, mac="m2", ip=None, dpid=1)
        series = list(mon.replay_series([0.5, 2.0, 4.0]))
        assert len(series[0].users) == 0
        assert len(series[1].users) == 1
        assert len(series[2].users) == 2

    def test_snapshot_is_isolated_copy(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip=None, dpid=1)
        snap = mon.snapshot()
        snap.users["m1"].online = False
        assert mon.snapshot().users["m1"].online


class TestCheckpoints:
    def _emit_hosts(self, log, count):
        for i in range(count):
            log.emit(float(i), EventKind.HOST_JOIN,
                     mac=f"m{i}", ip=None, dpid=1)

    def test_checkpoints_appear_every_interval(self):
        log = EventLog()
        mon = MonitoringComponent(log, checkpoint_interval=5)
        self._emit_hosts(log, 12)
        assert [seq for seq, __ in mon.checkpoints()] == [4, 9]

    def test_checkpointed_replay_matches_linear(self):
        log = EventLog(segment_size=4)
        mon = MonitoringComponent(log, checkpoint_interval=3)
        self._emit_hosts(log, 20)
        log.emit(25.0, EventKind.HOST_LEAVE, mac="m3")
        for until in (None, 0.0, 7.5, 19.0, 25.0, 99.0, -1.0):
            assert mon.replay(until) == oracles.replay_linear(mon, until)

    def test_replay_folds_only_the_delta(self):
        log = EventLog(segment_size=8)
        mon = MonitoringComponent(log, checkpoint_interval=10)
        self._emit_hosts(log, 100)
        applied = []
        original = mon.log.events_after

        def counting(seq):
            for event in original(seq):
                applied.append(event)
                yield event

        mon.log.events_after = counting
        mon.replay(until=98.5)
        # 99 events precede t=98.5; the nearest checkpoint (seq 89)
        # leaves at most interval-sized work.
        assert len(applied) <= 11

    def test_checkpoint_ladder_stays_bounded(self):
        log = EventLog()
        mon = MonitoringComponent(log, checkpoint_interval=2,
                                  max_checkpoints=4)
        self._emit_hosts(log, 200)
        assert len(mon._checkpoints) <= 4
        assert mon.checkpoint_interval > 2
        # Thinned or not, replay stays exact.
        for until in (3.0, 50.5, 199.0):
            assert mon.replay(until) == oracles.replay_linear(mon, until)

    def test_monitoring_has_no_database_copy(self):
        log = EventLog()
        mon = MonitoringComponent(log)
        assert not hasattr(mon, "database")


class TestMonitoringViewFixes:
    def test_switch_leave_prunes_link_loads(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.LINK_LOAD, dpid=1, port=1, utilization=0.9)
        log.emit(1.0, EventKind.LINK_LOAD, dpid=2, port=1, utilization=0.5)
        log.emit(2.0, EventKind.SWITCH_LEAVE, dpid=1)
        loads = mon.snapshot().link_loads
        assert (1, 1) not in loads
        assert loads[(2, 1)] == 0.5

    def test_link_down_prunes_both_ports_loads(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.LINK_UP, src_dpid=1, src_port=3,
                 dst_dpid=2, dst_port=4)
        log.emit(2.0, EventKind.LINK_LOAD, dpid=1, port=3, utilization=0.7)
        log.emit(2.0, EventKind.LINK_LOAD, dpid=2, port=4, utilization=0.6)
        log.emit(2.0, EventKind.LINK_LOAD, dpid=2, port=9, utilization=0.1)
        log.emit(3.0, EventKind.LINK_DOWN, src_dpid=1, src_port=3,
                 dst_dpid=2, dst_port=4)
        snap = mon.snapshot()
        assert snap.links == []
        assert snap.link_loads == {(2, 9): 0.1}

    def test_link_down_without_ports_still_removes_link(self, monitor):
        log, mon = monitor  # old recordings carry no port fields
        log.emit(1.0, EventKind.LINK_UP, src_dpid=1, dst_dpid=2)
        log.emit(2.0, EventKind.LINK_DOWN, src_dpid=2, dst_dpid=1)
        assert mon.snapshot().links == []

    def test_rejoining_user_keeps_history(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip="10.0.0.1", dpid=1)
        log.emit(2.0, EventKind.PROTOCOL_IDENTIFIED, user_mac="m1",
                 application="http")
        log.emit(3.0, EventKind.ATTACK_DETECTED, user_mac="m1", attack="x")
        log.emit(3.0, EventKind.FLOW_BLOCKED, user_mac="m1")
        log.emit(4.0, EventKind.HOST_LEAVE, mac="m1")
        log.emit(9.0, EventKind.HOST_JOIN, mac="m1", ip="10.0.0.7", dpid=3)
        user = mon.snapshot().users["m1"]
        assert user.online
        assert user.ip == "10.0.0.7" and user.dpid == 3
        assert user.applications == ["http"]
        assert user.attacks == 1 and user.blocked

    def test_host_move_while_offline_marks_online(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip=None, dpid=1)
        log.emit(2.0, EventKind.HOST_LEAVE, mac="m1")
        log.emit(3.0, EventKind.HOST_MOVE, mac="m1", dpid=2)
        user = mon.snapshot().users["m1"]
        assert user.online and user.dpid == 2

    def test_full_mesh_accepts_one_directional_discovery(self):
        snap = Snapshot(time=0.0, switches=[1, 2, 3],
                        links=[(1, 2), (3, 1), (2, 3)])
        assert snap.full_mesh()

    def test_full_mesh_still_fails_on_missing_pair(self):
        snap = Snapshot(time=0.0, switches=[1, 2, 3],
                        links=[(1, 2), (2, 1), (1, 3)])
        assert not snap.full_mesh()

    def test_replay_series_non_ascending_times(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip=None, dpid=1)
        log.emit(3.0, EventKind.HOST_JOIN, mac="m2", ip=None, dpid=1)
        log.emit(5.0, EventKind.HOST_LEAVE, mac="m1")
        times = [4.0, 2.0, 6.0, 0.5]
        series = list(mon.replay_series(times))
        for snap, moment in zip(series, times):
            assert snap == mon.replay(until=moment)
        # The rewound moments really differ from the forward cursor.
        assert len(series[1].users) == 1
        assert len(series[3].users) == 0


class TestRender:
    def test_render_contains_key_facts(self, monitor):
        log, mon = monitor
        log.emit(1.0, EventKind.SWITCH_JOIN, dpid=1, name="a")
        log.emit(1.0, EventKind.HOST_JOIN, mac="m1", ip="10.0.0.1", dpid=1)
        log.emit(2.0, EventKind.ELEMENT_ONLINE, mac="e1",
                 service_type="ids", dpid=1)
        log.emit(3.0, EventKind.ATTACK_DETECTED, user_mac="m1", attack="x")
        text = render_snapshot(mon.snapshot())
        assert "users online: 1" in text
        assert "m1" in text and "e1" in text
        assert "attacks" in text

    def test_render_empty_snapshot(self):
        text = render_snapshot(Snapshot(time=0.0))
        assert "users online: 0" in text
