"""The time-series layer: windows, aggregates, rates, invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.monitor.series import Point, TimeSeries


class TestTimeSeries:
    def test_append_and_props(self):
        s = TimeSeries("x")
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert len(s) == 2
        assert s.times == (1.0, 2.0)
        assert s.values == (10.0, 20.0)
        assert s.start_s == 1.0 and s.end_s == 2.0
        assert s.points[0] == Point(1.0, 10.0)

    def test_time_must_not_decrease(self):
        s = TimeSeries("x")
        s.append(2.0, 1.0)
        with pytest.raises(ValidationError):
            s.append(1.0, 1.0)

    def test_equal_times_allowed(self):
        s = TimeSeries("x")
        s.append(1.0, 1.0)
        s.append(1.0, 2.0)
        assert len(s) == 2

    def test_bad_kind_raises(self):
        with pytest.raises(ValidationError):
            TimeSeries("x", kind="delta")

    def test_value_at_is_step_function(self):
        s = TimeSeries("x")
        s.extend([(1.0, 10.0), (3.0, 30.0)])
        assert math.isnan(s.value_at(0.5))
        assert s.value_at(1.0) == 10.0
        assert s.value_at(2.9) == 10.0
        assert s.value_at(3.0) == 30.0
        assert s.value_at(99.0) == 30.0

    def test_between_half_open_left(self):
        s = TimeSeries("x")
        s.extend([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        # (1, 3] excludes the point at the left edge, includes the right.
        assert s.between(1.0, 3.0) == [2.0, 3.0]
        assert s.between(0.0, 1.0) == [1.0]
        assert s.between(3.0, 9.0) == []

    def test_empty_series_is_falsy(self):
        s = TimeSeries("x")
        assert not s
        assert math.isnan(s.start_s)


class TestTumbling:
    def test_buckets_tile_without_double_counting(self):
        s = TimeSeries("x", kind="event")
        s.extend([(0.5, 1.0), (1.0, 2.0), (1.5, 3.0), (2.0, 4.0)])
        out = s.tumbling(1.0, "sum")
        # Bucket (0,1] holds 0.5 and 1.0; (1,2] holds 1.5 and 2.0.
        assert out.times == (1.0, 2.0)
        assert out.values == (3.0, 7.0)

    def test_empty_bucket_is_nan_except_count(self):
        s = TimeSeries("x", kind="event")
        s.extend([(0.5, 1.0), (2.5, 1.0)])
        means = s.tumbling(1.0, "mean")
        assert math.isnan(means.values[1])
        counts = s.tumbling(1.0, "count")
        assert counts.values == (1.0, 0.0, 1.0)

    def test_quantile_aggregator(self):
        s = TimeSeries("x", kind="event")
        s.extend([(0.1 * i, float(i)) for i in range(1, 10)])
        out = s.tumbling(1.0, "p50")
        assert out.values == (5.0,)

    def test_explicit_end_extends_grid(self):
        s = TimeSeries("x", kind="event")
        s.append(0.5, 1.0)
        out = s.tumbling(1.0, "count", end_s=3.0)
        assert out.times == (1.0, 2.0, 3.0)

    def test_bad_width_raises(self):
        with pytest.raises(ValidationError):
            TimeSeries("x").tumbling(0.0)


class TestPercentileAggregator:
    """``p<q>`` windows aggregate with :func:`numpy.percentile`."""

    @staticmethod
    def window(values):
        s = TimeSeries("x", kind="event")
        s.extend([(0.1 * (i + 1), v) for i, v in enumerate(values)])
        return s

    def test_single_point_window(self):
        s = self.window([3.0])
        for how in ("p0", "p50", "p100"):
            assert s.tumbling(1.0, how).values == (3.0,)

    def test_interpolates_between_ranks(self):
        assert self.window([0.0, 10.0]).tumbling(1.0, "p50").values == (5.0,)
        assert self.window([1.0, 2.0, 3.0, 4.0]).tumbling(
            1.0, "p50"
        ).values == (2.5,)

    def test_extremes_of_an_unsorted_window(self):
        s = self.window([5.0, 1.0, 9.0, 3.0])
        assert s.tumbling(1.0, "p0").values == (1.0,)
        assert s.tumbling(1.0, "p100").values == (9.0,)
        assert s.tumbling(1.0, "p50").values == (4.0,)

    def test_matches_numpy_percentile(self):
        values = np.random.default_rng(3).lognormal(size=9)
        s = self.window(values.tolist())
        for q in (1, 50, 95, 99, 99.9):
            assert s.tumbling(1.0, f"p{q:g}").values == (
                float(np.percentile(values, q)),
            )

    def test_empty_window_is_nan(self):
        s = TimeSeries("x", kind="event")
        s.extend([(0.5, 1.0), (2.5, 1.0)])
        assert math.isnan(s.tumbling(1.0, "p99").values[1])

    @pytest.mark.parametrize("how", ["p", "p-1", "p100.5"])
    def test_malformed_level_raises(self, how):
        with pytest.raises(ValidationError, match="unknown aggregator"):
            self.window([1.0]).tumbling(1.0, how)


class TestSliding:
    def test_overlapping_windows(self):
        s = TimeSeries("x", kind="event")
        s.extend([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
        out = s.sliding(2.0, 1.0, "sum")
        assert out.times == (1.0, 2.0, 3.0)
        # Trailing (t-2, t]: at t=2 holds both 1.0 and 2.0.
        assert out.values == (1.0, 3.0, 5.0)

    def test_unknown_aggregator_raises(self):
        s = TimeSeries("x")
        s.append(1.0, 1.0)
        with pytest.raises(ValidationError):
            s.sliding(1.0, 1.0, "median")
        with pytest.raises(ValidationError):
            s.sliding(1.0, 1.0, "pxx")
        with pytest.raises(ValidationError):
            s.sliding(1.0, 1.0, "p150")


class TestRate:
    def test_counter_rate(self):
        s = TimeSeries("c", kind="counter")
        s.extend([(1.0, 0.0), (2.0, 10.0), (4.0, 10.0), (5.0, 13.0)])
        out = s.rate()
        assert out.times == (2.0, 4.0, 5.0)
        assert out.values == (10.0, 0.0, 3.0)

    def test_rate_requires_counter(self):
        s = TimeSeries("g", kind="gauge")
        s.extend([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(ValidationError):
            s.rate()

    def test_rate_rejects_decrease(self):
        s = TimeSeries("c", kind="counter")
        s.extend([(1.0, 5.0), (2.0, 3.0)])
        with pytest.raises(ValidationError):
            s.rate()


class TestSerialisation:
    def test_to_dict_round_trip_shape(self):
        s = TimeSeries("x", kind="counter")
        s.extend([(1.0, 2.0), (3.0, 4.0)])
        d = s.to_dict()
        assert d == {"name": "x", "kind": "counter", "t": [1.0, 3.0],
                     "v": [2.0, 4.0]}

    def test_from_events_sorts(self):
        s = TimeSeries.from_events("e", [(3.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        assert s.kind == "event"
        assert s.times == (1.0, 2.0, 3.0)
        assert s.values == (2.0, 3.0, 1.0)
