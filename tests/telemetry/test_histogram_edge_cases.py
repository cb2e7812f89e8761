"""Histogram edge cases: tiny streams, constant streams, ordering.

A :class:`~repro.telemetry.metrics.Histogram` keeps its observations and
reads quantiles by NumPy's linear rule, so every level is exact from the
first observation on.  These pin the degenerate streams: a constant
stream answers the constant, the levels stay ordered, and every answer
lies within the observed range.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.telemetry.metrics import Histogram


def histogram(values) -> Histogram:
    h = Histogram("h")
    h.observe_many(values)
    return h


class TestWarmUp:
    def test_empty_is_nan(self):
        assert math.isnan(Histogram("h").quantile(0.5))

    def test_exact_through_five_samples(self):
        h = histogram([5.0, 1.0, 3.0])
        assert h.quantile(0.5) == 3.0  # exact median of {1, 3, 5}
        h.observe(2.0)
        h.observe(4.0)
        assert h.quantile(0.5) == 3.0  # exact median of {1..5}

    def test_single_sample_is_that_sample(self):
        for q in (0.5, 0.95, 0.99):
            assert histogram([42.0]).quantile(q) == 42.0

    def test_quantile_bounds(self):
        h = histogram([1.0, 2.0])
        with pytest.raises(ValidationError):
            h.quantile(0.0)
        with pytest.raises(ValidationError):
            h.quantile(1.0)


class TestSixthSampleTransition:
    def test_transition_stays_within_observed_range(self):
        h = histogram([10.0, 20.0, 30.0, 40.0, 50.0])
        assert h.quantile(0.5) == 30.0
        h.observe(35.0)
        assert h.quantile(0.5) == 32.5  # exact median of six

    def test_six_identical_then_estimate_is_that_value(self):
        assert histogram([7.5] * 6).quantile(0.95) == 7.5

    def test_new_min_and_max_update_extreme_markers(self):
        h = histogram([2.0, 3.0, 4.0, 5.0, 6.0, 4.5])
        h.observe(0.5)  # below every observation
        h.observe(99.0)  # above every observation
        assert h.min == 0.5 and h.max == 99.0
        assert 0.5 <= h.quantile(0.5) <= 99.0


class TestConstantStreams:
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize("n", [1, 5, 6, 100])
    def test_constant_stream_estimates_the_constant(self, q, n):
        assert histogram([3.25] * n).quantile(q) == 3.25

    def test_histogram_of_constants(self):
        h = histogram([1.5] * 1000)
        snap = h.snapshot()
        assert snap["min"] == snap["max"] == 1.5
        assert snap["quantiles"] == {"0.5": 1.5, "0.95": 1.5, "0.99": 1.5}


class TestMonotonicity:
    def test_quantile_levels_stay_ordered_on_sorted_input(self):
        h = histogram(float(i) for i in range(1, 2001))
        p50, p95, p99 = (h.quantile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        # On a ramp the levels are the exact interpolated order statistics.
        assert (p50, p95, p99) == (1000.5, 1900.05, 1980.01)

    def test_reverse_sorted_input_also_ordered(self):
        h = histogram(float(i) for i in range(2000, 0, -1))
        p50, p95, p99 = (h.quantile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        assert (p50, p95, p99) == tuple(
            np.quantile(np.arange(1.0, 2001.0), (0.5, 0.95, 0.99))
        )

    def test_estimates_bounded_by_observed_range(self):
        values = [((i * 7919) % 1000) / 10.0 for i in range(500)]
        h = histogram(values)
        for q in (0.5, 0.95, 0.99):
            assert min(values) <= h.quantile(q) <= max(values)
