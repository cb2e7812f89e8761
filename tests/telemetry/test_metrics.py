"""Unit tests for the metrics registry and the exact histogram."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ValidationError
from repro.serving.metrics import LatencyStats
from repro.telemetry import CounterFamily, MetricsRegistry, metric_key
from repro.telemetry.metrics import Histogram


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("requests_total") == "requests_total"

    def test_labels_sorted(self):
        key = metric_key("x", {"b": "2", "a": "1"})
        assert key == 'x{a="1",b="2"}'

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            metric_key("")


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_never_decreases(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(ValidationError):
            c.inc(-1)

    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("n")
        with pytest.raises(ValidationError):
            reg.gauge("n")


class TestGauge:
    def test_set_overwrites(self):
        g = MetricsRegistry().gauge("level")
        g.set(3.0)
        g.set(1.5)
        assert g.value == pytest.approx(1.5)


class TestHistogram:
    def test_exact_under_five_samples(self):
        h = Histogram("lat")
        h.observe_many([3.0, 1.0, 2.0])
        assert h.quantile(0.5) == 2.0
        assert h.count == 3
        assert h.min == 1.0 and h.max == 3.0

    def test_tracks_large_stream_exactly(self):
        rng = np.random.default_rng(42)
        sample = rng.exponential(scale=1.0, size=20_000)
        h = Histogram("lat")
        h.observe_many(sample)
        for q, percent in ((0.5, 50), (0.95, 95), (0.99, 99)):
            assert h.quantile(q) == float(np.quantile(sample, q))
            assert h.quantile(q) == float(np.percentile(sample, percent))
        assert h.count == sample.size
        assert h.sum == pytest.approx(float(sample.sum()))
        assert h.max == float(sample.max())

    def test_any_level_answered_nan_refused(self):
        h = Histogram("lat")
        h.observe_many([4.0, 1.0, 3.0, 2.0])
        assert h.quantile(0.25) == 1.75
        with pytest.raises(ValidationError, match="quantile"):
            h.quantile(float("nan"))

    def test_sum_adds_left_to_right(self):
        values = [1e16, 1.0, -1e16, 1.0]
        h = Histogram("lat")
        h.observe_many(values)
        total = 0.0
        for x in values:
            total += x
        assert h.sum == total == 1.0

    def test_empty_snapshot_is_nullish(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["min"] is None
        assert snap["quantiles"]["0.5"] is None

    @given(latencies=arrays(
        np.float64, st.integers(1, 500),
        elements=st.floats(0.0, 1.0, allow_subnormal=False),
    ))
    @settings(max_examples=100, deadline=None)
    def test_quantiles_are_the_latency_report(self, latencies):
        h = Histogram("lat")
        h.observe_many(latencies)
        stats = LatencyStats.from_latencies(latencies)
        assert h.count == stats.n
        assert (h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)) == (
            stats.p50_s, stats.p95_s, stats.p99_s
        )
        assert h.max == stats.max_s

    def test_snapshot_reports_the_report_levels(self):
        h = Histogram("lat")
        h.observe_many([0.4, 0.1, 0.3, 0.2])
        assert h.snapshot()["quantiles"] == {
            str(q): h.quantile(q) for q in (0.5, 0.95, 0.99)
        }


class TestRegistry:
    def test_snapshot_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.gauge("b").set(2.0)
        reg.counter("a").inc(1)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"] == {"type": "counter", "value": 1.0}
        assert snap["b"] == {"type": "gauge", "value": 2.0}

    def test_labelled_metrics_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("rows", labels={"card": "0"}).inc(3)
        reg.counter("rows", labels={"card": "1"}).inc(5)
        assert reg.get('rows{card="0"}').value == 3
        assert reg.get('rows{card="1"}').value == 5

    def test_counter_family_registers_each_value_on_first_use(self):
        reg = MetricsRegistry()
        rows = CounterFamily(reg, "rows", label="card")
        assert reg.names() == ()
        rows[1].inc(3)
        rows[1].inc(2)
        assert reg.names() == ('rows{card="1"}',)
        assert rows[1] is reg.counter("rows", labels={"card": "1"})
        assert rows[1].value == 5

    def test_absorb_adds_counters_sets_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(1)
        b.counter("n").inc(2)
        b.gauge("level").set(7.0)
        a.absorb(b)
        assert a.get("n").value == 3
        assert a.get("level").value == 7.0

    def test_absorb_rejects_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("lat").observe(1.0)
        with pytest.raises(ValidationError):
            a.absorb(b)

    def test_missing_metric_raises(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().get("nope")
