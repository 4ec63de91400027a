"""Unit tests for metrics and table formatting."""

import pytest

from repro.analysis import (
    Sampler,
    format_table,
    mbps,
    percentile,
    summarize_latencies,
)


class TestRates:
    def test_mbps(self):
        assert mbps(8e6, 1.0) == 8.0
        assert mbps(8e6, 2.0) == 4.0
        assert mbps(1, 0.0) == 0.0


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 9

    def test_single_value(self):
        assert percentile([7], 95) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_p(self):
        with pytest.raises(ValueError):
            percentile([1], 150)


class TestLatencySummary:
    def test_summary_fields(self):
        summary = summarize_latencies([0.001, 0.002, 0.003])
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(0.002)
        assert summary["p50"] == pytest.approx(0.002)
        assert summary["max"] == 0.003

    def test_empty_is_zeroes(self):
        summary = summarize_latencies([])
        assert summary["count"] == 0
        assert summary["mean"] == 0.0


class TestSampler:
    def test_periodic_collection(self, sim):
        values = iter(range(100))
        sampler = Sampler(sim, 1.0, lambda: float(next(values)))
        sim.run(until=3.5)
        assert sampler.values == [0.0, 1.0, 2.0]
        assert sampler.times == [1.0, 2.0, 3.0]
        assert sampler.mean() == 1.0
        assert sampler.last() == 2.0

    def test_stop(self, sim):
        sampler = Sampler(sim, 1.0, lambda: 1.0)
        sim.run(until=1.5)
        sampler.stop()
        sim.run(until=5.0)
        assert len(sampler.values) == 1

    def test_empty_sampler(self, sim):
        sampler = Sampler(sim, 1.0, lambda: 1.0)
        assert sampler.mean() == 0.0
        assert sampler.last() is None


class TestTable:
    def test_basic_rendering(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 2.5]],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert "name" in lines[1] and "value" in lines[1]
        assert lines[2].startswith("----")
        assert "bb" in lines[4]

    def test_column_width_fits_widest(self):
        text = format_table(["x"], [["wide-cell-content"]])
        header, rule, row = text.splitlines()
        assert len(rule) == len("wide-cell-content")

    def test_float_formatting(self):
        text = format_table(["v"], [[3.14159]])
        assert "3.142" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text
