"""Tests for the command-line interface and ASCII charts."""

import pytest

from repro.analysis.ascii_charts import bar_chart
from repro.cli import build_parser, main


class TestAsciiCharts:
    def test_bar_chart_layout(self):
        chart = bar_chart({"aa": 2.0, "b": 1.0}, width=4)
        lines = chart.splitlines()
        assert lines[0].startswith("aa  ████")
        assert lines[1].startswith("b ")
        assert "██" in lines[1]

    def test_bar_chart_empty(self):
        assert bar_chart({}) == ""


class TestParser:
    def test_all_commands_present(self):
        parser = build_parser()
        text = parser.format_help()
        commands = text.split("{")[1].split("}")[0].split(",")
        assert sorted(commands) == [
            "apps", "chaos", "experiment", "fluid", "journal", "ops",
            "policy", "replay", "shards", "stats",
        ]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv,message", [
        (["chaos", "--shards", "0"], "must be at least 1 (got 0)"),
        (["shards", "--shards", "1"], "must be at least 2 (got 1)"),
        (["shards", "--shards", "0"], "must be at least 2 (got 0)"),
        (["shards", "--shards", "two"], "invalid int value: 'two'"),
    ])
    def test_a_bad_shard_count_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --shards: {message}" in err
        assert "Traceback" not in err


class TestCommands:
    def test_stats_quick_prints_hot_path_histograms(self, capsys):
        assert main(["stats", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "controller.packet_in_latency_s{kind=data}" in out
        assert "controller.flow_setup_rules" in out
        assert "p95" in out and "p99" in out

    def test_stats_json_round_trips(self, capsys):
        from repro.obs import from_json

        assert main(["stats", "--quick", "--format", "json"]) == 0
        snapshot = from_json(capsys.readouterr().out)
        assert snapshot.get("controller.flows_installed").value >= 1

    def test_stats_prometheus_format(self, capsys):
        assert main(["stats", "--quick", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE livesec_controller_flows_installed_total counter" in out
        assert 'livesec_controller_packet_in_latency_s{kind="data"' in out


class TestChaosShards:
    def test_compromised_switch_honours_shards(self, capsys):
        assert main(["chaos", "--scenario", "compromised-switch",
                     "--shards", "2", "--duration", "6.0",
                     "--assert-detected"]) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "quarantined=[2]" in out

    def test_shard_failover_refuses_a_shard_count(self, capsys):
        assert main(["chaos", "--scenario", "shard-failover",
                     "--shards", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "one shard per pod" in captured.err


class TestReplayCommand:
    @pytest.fixture
    def recording(self, tmp_path):
        from repro.core.events import EventKind, EventLog

        log = EventLog()
        log.emit(1.0, EventKind.SWITCH_JOIN, dpid=1, name="sw1")
        log.emit(2.0, EventKind.HOST_JOIN, mac="m1", ip="10.0.0.1", dpid=1)
        log.emit(6.0, EventKind.HOST_LEAVE, mac="m1")
        path = str(tmp_path / "run.jsonl")
        log.save(path)
        return path, log.digest()

    def test_replay_renders_final_state(self, recording, capsys):
        path, __ = recording
        assert main(["replay", path]) == 0
        out = capsys.readouterr().out
        assert "users left: ['m1']" in out
        assert "3 events" in out

    def test_replay_at_past_moment(self, recording, capsys):
        path, __ = recording
        assert main(["replay", path, "--at", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "users online: 1" in out
        assert "t=3.00s" in out

    def test_replay_digest_only_matches_recording(self, recording, capsys):
        path, digest = recording
        assert main(["replay", path, "--digest-only"]) == 0
        assert digest in capsys.readouterr().out

    def test_replay_json_format(self, recording, capsys):
        import json

        path, __ = recording
        assert main(["replay", path, "--format", "json", "--at", "3.0"]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["users"][0]["online"] is True

    def test_chaos_record_then_replay_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "chaos.jsonl")
        assert main(["chaos", "--seed", "0", "--duration", "6.0",
                     "--record", path]) == 0
        live = capsys.readouterr().out
        assert "recorded" in live
        assert main(["replay", path, "--digest-only"]) == 0
        replayed = capsys.readouterr().out
        live_digest = live.split("digest ")[-1].split(")")[0].strip()
        assert live_digest in replayed


class TestAppsCommand:
    def test_apps_json_lists_all_apps(self, capsys):
        import json

        assert main(["apps", "--format", "json", "--no-traffic"]) == 0
        descriptions = json.loads(capsys.readouterr().out)
        names = [d["name"] for d in descriptions]
        assert names == ["host-tracker", "topology", "service-directory",
                         "policy-engine", "steering", "monitor"]
        for description in descriptions:
            assert description["summary"]
            assert isinstance(description["subscriptions"], list)

    def test_apps_text_shows_traffic_counters(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "steering" in out
        assert "DataPacketIn" in out


class TestOpsCommand:
    def test_ops_status_lists_running_apps(self, capsys):
        assert main(["ops", "--seconds", "2"]) == 0
        out = capsys.readouterr().out
        assert "monitor" in out
        assert "running" in out
        assert "journal digest " in out

    def test_ops_cycle_records_and_replays(self, tmp_path, capsys):
        import re

        path = str(tmp_path / "ops.jsonl")
        assert main(["ops", "--action", "cycle", "--seconds", "3",
                     "--record", path]) == 0
        out = capsys.readouterr().out
        assert "ops: stopped 'monitor'" in out
        assert "ops: reloaded 'monitor'" in out
        assert "ops: started 'monitor'" in out
        assert "(replay digest matches)" in out
        digest = re.search(r"journal digest ([0-9a-f]{64})", out).group(1)

        # Same-seed second run: the journal digest is reproducible.
        assert main(["ops", "--action", "cycle", "--seconds", "3"]) == 0
        second = capsys.readouterr().out
        assert re.search(
            r"journal digest ([0-9a-f]{64})", second).group(1) == digest

    def test_ops_reload_same_config_is_skipped(self, capsys):
        assert main(["ops", "--action", "reload", "--app", "steering",
                     "--seconds", "2"]) == 0
        out = capsys.readouterr().out
        assert "skipped (same config)" in out

    @pytest.mark.parametrize("action", ["stop", "reload", "restart", "cycle"])
    def test_ops_on_an_app_not_loaded_exits_2(self, action, capsys):
        # Used to die with a KeyError traceback from the controller.
        assert main(["ops", "--action", action,
                     "--app", "accountability"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "'accountability'" in line
        assert "monitor" in line and "steering" in line

    def test_ops_json_format(self, capsys):
        import json

        assert main(["ops", "--action", "stop", "--seconds", "2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_name = {app["name"]: app for app in payload["apps"]}
        assert by_name["monitor"]["state"] == "stopped"
        assert payload["journal"]["sessions"] > 0
        assert len(payload["journal_digest"]) == 64


class TestJournalCommand:
    @pytest.fixture()
    def recording(self, tmp_path, capsys):
        path = str(tmp_path / "ops.jsonl")
        assert main(["ops", "--action", "cycle", "--seconds", "3",
                     "--record", path]) == 0
        capsys.readouterr()
        return path

    def test_journal_summarizes_sessions(self, recording, capsys):
        assert main(["journal", recording]) == 0
        out = capsys.readouterr().out
        assert "session" in out
        assert "journal digest " in out

    def test_journal_digest_only(self, recording, capsys):
        assert main(["journal", recording, "--digest-only"]) == 0
        out = capsys.readouterr().out
        assert "journal digest " in out

    def test_journal_single_session_detail(self, recording, capsys):
        assert main(["journal", recording, "--session", "1"]) == 0
        out = capsys.readouterr().out
        assert "open" in out

    def test_journal_missing_session_fails(self, recording, capsys):
        assert main(["journal", recording, "--session", "999"]) == 1

    def test_journal_json_format(self, recording, capsys):
        import json

        assert main(["journal", recording, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["sessions"] > 0
        assert payload["records"]
        assert len(payload["digest"]) == 64
