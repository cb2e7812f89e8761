"""The sampler: grid alignment, as-of semantics, probes, flushing."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.monitor.sampler import MetricsSampler
from repro.sim import Simulation
from repro.telemetry import MetricsRegistry


def _run(events, *, period_s=1.0, names=None, finish_at=None, probes=()):
    """Drive a tiny simulation: ``events`` is [(t, fn(registry))]."""
    registry = MetricsRegistry()
    sampler = MetricsSampler(registry, period_s=period_s, names=names)
    for name, fn in probes:
        sampler.add_probe(name, fn)
    sim = Simulation()
    sampler.attach(sim)
    for t, fn in events:
        sim.schedule_at(t, lambda _p, fn=fn: fn(registry))
    sim.run()
    if finish_at is not None:
        sampler.finish(finish_at)
    return sampler


class TestSampling:
    def test_samples_land_on_grid(self):
        inc = lambda reg: reg.counter("hits_total").inc()  # noqa: E731
        sampler = _run(
            [(0.4, inc), (1.2, inc), (2.7, inc), (3.1, inc)],
            finish_at=4.0,
        )
        series = sampler.series["hits_total"]
        assert series.times == (1.0, 2.0, 3.0, 4.0)

    def test_sample_is_as_of_the_boundary(self):
        # The event AT t=1.0 must not be included in the t=1.0 sample:
        # the hook fires before the callback runs.
        inc = lambda reg: reg.counter("hits_total").inc()  # noqa: E731
        sampler = _run([(0.5, inc), (1.0, inc)], finish_at=2.0)
        series = sampler.series["hits_total"]
        assert series.times == (1.0, 2.0)
        assert series.values == (1.0, 2.0)

    def test_counter_series_kind(self):
        inc = lambda reg: reg.counter("hits_total").inc()  # noqa: E731
        gset = lambda reg: reg.gauge("depth").set(7.0)  # noqa: E731
        sampler = _run([(0.1, inc), (0.2, gset)], finish_at=1.0)
        assert sampler.series["hits_total"].kind == "counter"
        assert sampler.series["depth"].kind == "gauge"

    def test_name_filter_matches_bare_name_of_labelled_metrics(self):
        def fn(reg):
            reg.counter("rows_total", labels={"card": "0"}).inc(5)
            reg.counter("rows_total", labels={"card": "1"}).inc(7)
            reg.counter("other_total").inc()

        sampler = _run([(0.1, fn)], names=("rows_total",), finish_at=1.0)
        keys = set(sampler.series)
        assert keys == {'rows_total{card="0"}', 'rows_total{card="1"}'}

    def test_histograms_are_not_sampled(self):
        def fn(reg):
            reg.histogram("lat_seconds").observe(0.1)
            reg.counter("hits_total").inc()

        sampler = _run([(0.1, fn)], finish_at=1.0)
        assert set(sampler.series) == {"hits_total"}


class TestProbes:
    def test_probe_sampled_at_each_boundary(self):
        sampler = _run(
            [(0.5, lambda reg: None), (2.5, lambda reg: None)],
            probes=[("cards_up", lambda t: 4.0 if t < 2.0 else 3.0)],
            finish_at=3.0,
        )
        series = sampler.series["cards_up"]
        assert series.times == (1.0, 2.0, 3.0)
        assert series.values == (4.0, 3.0, 3.0)

    def test_duplicate_probe_raises(self):
        sampler = MetricsSampler(MetricsRegistry(), period_s=1.0)
        sampler.add_probe("p", lambda t: 0.0)
        with pytest.raises(ValidationError):
            sampler.add_probe("p", lambda t: 0.0)


class TestFinish:
    def test_finish_flushes_remaining_boundaries(self):
        inc = lambda reg: reg.counter("hits_total").inc()  # noqa: E731
        sampler = _run([(0.5, inc)], finish_at=3.0)
        series = sampler.series["hits_total"]
        assert series.times == (1.0, 2.0, 3.0)
        # Post-run boundaries carry the final state.
        assert series.values == (1.0, 1.0, 1.0)

    def test_finish_is_idempotent(self):
        inc = lambda reg: reg.counter("hits_total").inc()  # noqa: E731
        sampler = _run([(0.5, inc)], finish_at=2.0)
        before = sampler.series["hits_total"].times
        sampler.finish(5.0)
        assert sampler.series["hits_total"].times == before

    def test_get_returns_none_for_unknown(self):
        sampler = MetricsSampler(MetricsRegistry(), period_s=1.0)
        assert sampler.get("missing") is None

    def test_bad_period_raises(self):
        with pytest.raises(ValidationError):
            MetricsSampler(MetricsRegistry(), period_s=0.0)
