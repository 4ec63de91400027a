"""The experiment catalogue: registry shape, the ids the docs hold it
to, the shared vocabulary, and the cheap entries end to end through
``python -m repro experiment``."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.deployment import build_livesec_network
from repro.core.loadbalance import load_deviation
from repro.net.topologies import GATEWAY_IP
from repro.workloads import CbrUdpFlow
from repro.workloads import experiments
from repro.workloads.experiments import (
    BY_ID,
    CATALOGUE,
    Experiment,
    element_goodput_mbps,
    measure,
    normal_traffic,
    throughput_net,
)

REPO = Path(__file__).resolve().parent.parent
# Entries that run in about two seconds or less.
CHEAP = ("E1", "E5", "E6", "E8", "E9", "E13", "E14")


class TestRegistry:
    def test_ids_unique_and_well_formed(self):
        ids = [experiment.id for experiment in CATALOGUE]
        assert len(ids) == len(set(ids)) == len(BY_ID) == 14
        for experiment_id in ids:
            assert re.fullmatch(r"E[1-9]\d*", experiment_id)

    def test_every_record_is_complete(self):
        for experiment in CATALOGUE:
            assert experiment.section and experiment.title
            assert experiment.headers
            # The paper's own claim, quoted or paraphrased.
            assert len(experiment.run.__doc__.strip()) > 80, experiment.id

    def test_not_imported_with_the_package(self):
        # perf/workloads.py imports repro.workloads.flows; whatever the
        # package pulls in lands in every ledger run's peak RSS.
        init = (REPO / "src/repro/workloads/__init__.py").read_text()
        assert "experiments" not in init


class TestDocsAgree:
    ALL_IDS = [f"E{n}" for n in range(1, 22)]

    def test_each_id_has_one_design_row(self):
        design = (REPO / "DESIGN.md").read_text()
        rows = re.findall(r"^\| \*\*(E\d+) \(", design, flags=re.M)
        assert sorted(rows, key=lambda i: int(i[1:])) == self.ALL_IDS

    def test_each_id_has_one_experiments_heading(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        headings = re.findall(r"^## (E\d+(?:/E\d+)?) ", text, flags=re.M)
        ids = [i for heading in headings for i in heading.split("/")]
        assert sorted(ids, key=lambda i: int(i[1:])) == self.ALL_IDS

    def test_no_id_names_two_things(self):
        # A bench test outside the catalogue carries its id in its name;
        # none may reuse a catalogue id or another bench's.
        bench_ids = []
        for path in sorted((REPO / "benchmarks").glob("bench_*.py")):
            bench_ids += re.findall(r"^def test_e(\d+)_", path.read_text(),
                                    flags=re.M)
        bench_ids = [f"E{n}" for n in bench_ids]
        assert len(bench_ids) == len(set(bench_ids))
        assert not set(bench_ids) & (set(BY_ID) | {"E7"})
        assert sorted(set(bench_ids) | set(BY_ID) | {"E7"},
                      key=lambda i: int(i[1:])) == self.ALL_IDS


class TestVocabulary:
    @pytest.mark.parametrize("warmup_s", [0.5, 1.25])
    def test_window_is_independent_of_the_warmup(self, warmup_s):
        net = build_livesec_network(topology="linear", num_as=2,
                                    hosts_per_as=1)
        net.start()
        flow = CbrUdpFlow(net.sim, net.host("h1_1"), GATEWAY_IP,
                          rate_bps=10e6).start()
        scalar, listed = measure(
            net.run, warmup_s, 1.0,
            lambda: flow.delivered_bytes(net.gateway),
            lambda: [flow.delivered_bytes(net.gateway), net.gateway.rx_bytes],
        )
        # Bytes since boot over the window alone would read
        # (warmup + 1) x the offered rate.
        assert scalar * 8 == pytest.approx(10e6, rel=0.02)
        assert listed[0] == scalar
        assert listed[1] * 8 == pytest.approx(10e6, rel=0.02)

    def test_element_shares_sum_to_the_gateway_goodput(self):
        goodput, shares = element_goodput_mbps(1)
        assert 380 <= goodput <= 440
        assert sum(shares) == pytest.approx(goodput, rel=0.01)

    def test_normal_traffic_balances_under_polling(self):
        # E10's polling row on a short window.
        net = throughput_net(4, dispatcher="polling")
        normal_traffic(net, stagger_s=0.3)
        [rates] = measure(
            net.run, 2.0, 1.0,
            lambda: [element.processed_packets for element in net.elements],
        )
        assert min(rates) > 0
        assert load_deviation(rates) <= 0.10

    def test_population_ports_do_not_depend_on_history(self):
        first = normal_traffic(throughput_net(4), stagger_s=0.3)
        unrelated = throughput_net(0)
        for _ in range(7):
            CbrUdpFlow(unrelated.sim, unrelated.host("h1_1"), GATEWAY_IP)
        second = normal_traffic(throughput_net(4), stagger_s=0.3)
        ports = [flow.sport for flow in first]
        assert ports == [flow.sport for flow in second]
        assert ports == list(range(20000, 20040))


class TestExperimentCommand:
    def test_no_ids_lists_without_running(self, capsys):
        assert main(["experiment"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(BY_ID)
        assert "V.B.3" in lines[4] and "latency" in lines[4]

    def test_unknown_id_is_rejected(self, capsys):
        assert main(["experiment", "E99"]) == 2
        assert "E99" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment_id", CHEAP)
    def test_cheap_entries_run_end_to_end(self, experiment_id, capsys):
        assert main(["experiment", experiment_id, "--format", "json"]) == 0
        [report] = json.loads(capsys.readouterr().out)
        experiment = BY_ID[experiment_id]
        assert report["id"] == experiment_id
        assert report["headers"] == list(experiment.headers)
        assert report["failure"] is None
        assert report["rows"]
        for row in report["rows"]:
            assert len(row) == len(experiment.headers)

    def test_text_format_prints_the_bench_table(self, capsys):
        assert main(["experiment", "E5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("== E5: ping latency, legacy vs LiveSec ==")
        assert "overhead" in out and "(paper: ~10%)" in out

    def test_markdown_format_is_a_github_table(self, capsys):
        assert main(["experiment", "E8", "--format", "markdown"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("## E8: interactive policy enforcement"
                            " (Section IV.A)")
        assert lines[2] == "| property | paper | measured |"
        assert lines[3] == "|---|---|---|"
        assert lines[4].startswith("| flow entries per steered connection")
        assert lines[4].endswith("| 4 + 4 | 8 |")

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        def check(result):
            assert result > 1, "too small"

        monkeypatch.setitem(experiments.BY_ID, "E99", Experiment(
            "E99", "-", "always fails", ("value",),
            lambda: 1, lambda result: [[result]], check,
        ))
        assert main(["experiment", "E99"]) == 1
        captured = capsys.readouterr()
        assert "== E99: always fails ==" in captured.out
        assert "FAIL E99: too small" in captured.err
