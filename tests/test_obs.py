"""Tests for the observability layer: metric primitives, registry,
exporters, and parity between the redesigned introspection API and the
legacy counters interface."""

import pytest

from repro import build_livesec_network
from repro.core.controller import ControllerStatus, LEGACY_COUNTER_NAMES
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricKey,
    MetricsRegistry,
    MetricsSnapshot,
    format_snapshot,
    from_json,
    to_json,
    to_prometheus_text,
)
from repro.workloads import HttpFlow

GATEWAY_IP = "10.255.255.254"


class FakeClock:
    """A manually advanced clock for timer tests."""

    def __init__(self, start: float = 0.0):
        self.t = start

    def __call__(self) -> float:
        return self.t


class TestCounter:
    def test_increments(self):
        counter = Counter(MetricKey("c"))
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = Counter(MetricKey("c"))
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGauge:
    def test_push_mode(self):
        gauge = Gauge(MetricKey("g"))
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_pull_mode_reads_at_snapshot_time(self):
        state = {"value": 1}
        gauge = Gauge(MetricKey("g"))
        gauge.set_function(lambda: state["value"])
        assert gauge.snapshot().value == 1
        state["value"] = 7
        assert gauge.snapshot().value == 7

    def test_set_overrides_pull_function(self):
        gauge = Gauge(MetricKey("g"))
        gauge.set_function(lambda: 99)
        gauge.set(1)
        assert gauge.value == 1


class TestHistogram:
    def test_percentiles_over_1_to_100(self):
        hist = Histogram(MetricKey("h"))
        for value in range(1, 101):
            hist.observe(value)
        assert hist.count == 100
        assert hist.mean == pytest.approx(50.5)
        assert hist.percentile(50.0) == 50
        assert hist.percentile(95.0) == 95
        assert hist.percentile(99.0) == 99
        snap = hist.snapshot()
        assert snap.quantile(50.0) == 50
        assert snap.min == 1 and snap.max == 100

    def test_empty_histogram_snapshot(self):
        snap = Histogram(MetricKey("h")).snapshot()
        assert snap.count == 0
        assert snap.min == 0.0 and snap.max == 0.0
        assert snap.quantile(50.0) == 0.0

    def test_timer_observes_clock_span(self):
        clock = FakeClock(start=5.0)
        hist = Histogram(MetricKey("h"), clock=clock)
        with hist.time():
            clock.t = 7.5
        assert hist.count == 1
        assert hist.sum == pytest.approx(2.5)

    def test_registry_clock_inherited_and_overridable(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        inherited = registry.histogram("a")
        overridden = registry.histogram("b", clock=FakeClock(start=100.0))
        with inherited.time():
            clock.t = 1.0
        with overridden.time():
            pass
        assert inherited.sum == pytest.approx(1.0)
        assert overridden.sum == pytest.approx(0.0)

    def test_stride_decimation_keeps_exact_count_and_sum(self):
        hist = Histogram(MetricKey("h"), max_samples=8)
        for value in range(1000):
            hist.observe(value)
        assert hist.count == 1000
        assert hist.sum == sum(range(1000))
        snap = hist.snapshot()
        assert 0 < len(snap.samples) <= 8
        # Decimation keeps the retained points spread over the run, so
        # percentiles stay sane (within a stride of the true value).
        assert snap.quantile(50.0) == pytest.approx(500, abs=150)

    def test_deterministic_reservoir(self):
        def build():
            hist = Histogram(MetricKey("h"), max_samples=16)
            for value in range(500):
                hist.observe(value * 0.1)
            return hist.snapshot()

        assert build() == build()


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.counter("c", kind="a") is not registry.counter("c")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_snapshot_sorted_and_queryable(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.gauge("a.first").set(1)
        snap = registry.snapshot()
        assert [m.name for m in snap] == ["a.first", "z.last"]
        assert snap.get("z.last").value == 1
        assert snap.get("missing") is None
        assert len(snap.with_prefix("a.")) == 1

    def test_labeled_key_rendering(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", dpid=3, kind="arp")
        assert str(counter.key) == "hits{dpid=3,kind=arp}"


class TestMerge:
    def test_counters_add(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        merged = a.snapshot().merge(b.snapshot())
        assert merged.get("c").value == 5

    def test_gauges_take_latest_shard(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        assert a.snapshot().merge(b.snapshot()).get("g").value == 9

    def test_histograms_pool_reservoirs(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for value in range(1, 51):
            a.histogram("h").observe(value)
        for value in range(51, 101):
            b.histogram("h").observe(value)
        merged = a.snapshot().merge(b.snapshot()).get("h")
        assert merged.count == 100
        assert merged.quantile(50.0) == 50
        assert merged.min == 1 and merged.max == 100

    def test_union_keeps_disjoint_metrics(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("only.a").inc()
        b.counter("only.b").inc()
        merged = a.snapshot().merge(b.snapshot())
        assert merged.get("only.a") and merged.get("only.b")

    def test_kind_mismatch_refused(self):
        counter = MetricsRegistry().counter("m").snapshot()
        gauge = MetricsRegistry().gauge("m").snapshot()
        with pytest.raises(ValueError):
            counter.merge(gauge)


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("requests", "Total requests", route="/a").inc(3)
    registry.gauge("temp", "Temperature").set(21.5)
    hist = registry.histogram("lat", "Latency")
    for value in (1.0, 2.0, 3.0, 4.0):
        hist.observe(value)
    return registry


class TestExporters:
    def test_json_round_trip_is_exact(self):
        snap = populated_registry().snapshot()
        assert from_json(to_json(snap)) == snap
        assert from_json(to_json(snap, indent=2)) == snap

    def test_prometheus_golden(self):
        text = to_prometheus_text(populated_registry().snapshot(),
                                  namespace="test")
        assert text == (
            "# HELP test_lat Latency\n"
            "# TYPE test_lat summary\n"
            'test_lat{quantile="0.5"} 2\n'
            'test_lat{quantile="0.95"} 4\n'
            'test_lat{quantile="0.99"} 4\n'
            "test_lat_sum 10\n"
            "test_lat_count 4\n"
            "# HELP test_requests_total Total requests\n"
            "# TYPE test_requests_total counter\n"
            'test_requests_total{route="/a"} 3\n'
            "# HELP test_temp Temperature\n"
            "# TYPE test_temp gauge\n"
            "test_temp 21.5\n"
        )

    def test_format_snapshot_sections(self):
        text = format_snapshot(populated_registry().snapshot(), title="t")
        assert "counters:" in text and "gauges:" in text
        assert "p95" in text
        assert "requests{route=/a}" in text


class TestControllerParity:
    """The redesigned introspection API must agree with the legacy
    counters interface on a live scenario."""

    @pytest.fixture
    def busy_net(self, ids_policy_table):
        net = build_livesec_network(
            topology="linear", policies=ids_policy_table,
            elements=[("ids", 1)], num_as=2, hosts_per_as=2,
        )
        net.start()
        flows = [
            HttpFlow(net.sim, host, GATEWAY_IP, rate_bps=2e6,
                     duration_s=1.5).start()
            for host in net.topology.hosts
            if host is not net.topology.gateway
        ]
        net.run(3.0)
        for flow in flows:
            flow.stop()
        return net

    def test_legacy_counters_match_registry(self, busy_net):
        controller = busy_net.controller
        snap = controller.metrics.snapshot()
        assert set(controller.counters) == set(LEGACY_COUNTER_NAMES)
        for name, value in controller.counters.items():
            metric = snap.get(f"controller.{name}")
            assert metric is not None and metric.kind == "counter"
            assert metric.value == value
        assert controller.counters["flows_installed"] >= 1

    def test_status_is_typed_and_shape_compatible(self, busy_net):
        status = busy_net.controller.status()
        assert isinstance(status, ControllerStatus)
        legacy = status.to_dict()
        assert set(legacy) == {"nib", "registry", "sessions", "counters",
                               "events"}
        assert legacy["counters"] == status.counters
        assert legacy["counters"] == busy_net.controller.counters
        assert isinstance(status.metrics, MetricsSnapshot)

    def test_hot_path_histograms_populated(self, busy_net):
        snap = busy_net.metrics_snapshot()
        data_latency = snap.get("controller.packet_in_latency_s", kind="data")
        assert data_latency is not None and data_latency.count >= 1
        assert data_latency.quantile(95.0) > 0
        rules = snap.get("controller.flow_setup_rules")
        assert rules.count >= 1 and rules.min >= 1
        scans = snap.get("controller.policy_lookup_scans")
        assert scans.count >= rules.count
        assert snap.get("balancer.assign_s").count >= 1

    def test_per_switch_gauges_exported(self, busy_net):
        snap = busy_net.metrics_snapshot()
        for switch in busy_net.topology.all_openflow_switches():
            occupancy = snap.get("switch.flow_table_entries",
                                 dpid=switch.dpid)
            assert occupancy is not None
            assert occupancy.value == len(switch.table)

    def test_snapshot_survives_json_round_trip(self, busy_net):
        snap = busy_net.metrics_snapshot()
        assert from_json(to_json(snap)) == snap

    def test_prometheus_export_covers_controller(self, busy_net):
        text = to_prometheus_text(busy_net.metrics_snapshot())
        assert "livesec_controller_flows_installed_total" in text
        assert 'livesec_controller_packet_in_latency_s{kind="data"' in text
