"""Tests for the web-database payload (paper IV.D): the event rows a
recorded run is saved as, and ``Snapshot.to_dict``, the display view
``python -m repro replay --format json`` prints."""

import json

import pytest

from repro.core.events import EventKind, EventLog
from repro.core.visualization import MonitoringComponent
from repro.net.topologies import GATEWAY_IP
from repro.workloads import HttpFlow


@pytest.fixture
def webdb():
    log = EventLog()
    monitoring = MonitoringComponent(log)
    log.emit(1.0, EventKind.SWITCH_JOIN, dpid=1, name="sw1")
    log.emit(1.0, EventKind.SWITCH_JOIN, dpid=2, name="sw2")
    log.emit(1.5, EventKind.LINK_UP, src_dpid=1, dst_dpid=2)
    log.emit(1.5, EventKind.LINK_UP, src_dpid=2, dst_dpid=1)
    log.emit(2.0, EventKind.HOST_JOIN, mac="m1", ip="10.0.0.1", dpid=1)
    log.emit(3.0, EventKind.ELEMENT_ONLINE, mac="e1", service_type="ids",
             dpid=2)
    log.emit(4.0, EventKind.PROTOCOL_IDENTIFIED, user_mac="m1",
             application="http")
    return log, monitoring


class TestSerialization:
    def test_live_view_shape(self, webdb):
        log, monitoring = webdb
        view = monitoring.snapshot().to_dict()
        assert view["switches"] == [1, 2]
        assert view["full_mesh"] is True
        assert view["users"] == [{
            "mac": "m1", "ip": "10.0.0.1", "dpid": 1, "online": True,
            "applications": ["http"], "attacks": 0, "blocked": False,
        }]
        assert view["elements"] == [{
            "mac": "e1", "service_type": "ids", "dpid": 2, "online": True,
            "cpu": 0.0, "pps": 0.0,
        }]

    def test_view_is_json_serializable(self, webdb):
        log, monitoring = webdb
        text = json.dumps(monitoring.snapshot().to_dict())
        assert "m1" in text

    def test_events_rows(self, webdb):
        log, monitoring = webdb
        rows = [event.to_dict() for event in log]
        assert len(rows) == 7
        assert rows[0] == {"time": 1.0, "kind": EventKind.SWITCH_JOIN,
                           "data": {"dpid": 1, "name": "sw1"}}

    def test_events_since_filter(self, webdb):
        log, monitoring = webdb
        assert len(log.query(since=2.0)) == 3

    def test_replay_view(self, webdb):
        log, monitoring = webdb
        log.emit(9.0, EventKind.HOST_LEAVE, mac="m1")
        past = monitoring.replay(until=5.0).to_dict()
        assert past["users"][0]["online"] is True
        now = monitoring.snapshot().to_dict()
        assert now["users"][0]["online"] is False


class TestDumpLoad:
    def test_roundtrip_through_file(self, webdb, tmp_path):
        log, monitoring = webdb
        path = str(tmp_path / "livesec-db.jsonl")
        assert log.save(path) == 7
        loaded = MonitoringComponent(EventLog.load(path))
        assert loaded.snapshot().to_dict() == monitoring.snapshot().to_dict()
        assert len(loaded.log) == 7

    def test_dump_from_running_network(self, steering_net, tmp_path):
        HttpFlow(steering_net.sim, steering_net.host("h1_1"), GATEWAY_IP,
                 rate_bps=2e6, duration_s=1.0).start()
        steering_net.run(2.0)
        path = str(tmp_path / "campus.jsonl")
        assert steering_net.controller.log.save(path) > 10
        view = MonitoringComponent(EventLog.load(path)).snapshot().to_dict()
        assert view["full_mesh"]
        assert len(view["elements"]) == 2
        assert json.loads(json.dumps(view)) == json.loads(json.dumps(
            steering_net.monitoring.snapshot().to_dict()))
