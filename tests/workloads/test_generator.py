"""Unit tests for workload generators."""

import numpy as np
import pytest

from repro.workloads.generator import (
    WorkloadGenerator,
    make_hazard_curve,
    make_option_portfolio,
    make_yield_curve,
)
from repro.errors import ValidationError


class TestCurveGenerators:
    def test_yield_curve_shape(self):
        yc = make_yield_curve(128, span_years=10.0, seed=0)
        assert len(yc) == 128
        assert float(yc.times[-1]) == pytest.approx(10.0)

    def test_yield_curve_upward_sloping_on_average(self):
        yc = make_yield_curve(256, seed=0)
        head = np.mean(np.asarray(yc.values[:32]))
        tail = np.mean(np.asarray(yc.values[-32:]))
        assert tail > head

    def test_rates_positive(self):
        yc = make_yield_curve(512, noise=0.01, seed=3)
        assert np.all(np.asarray(yc.values) > 0)

    def test_hazard_positive(self):
        hc = make_hazard_curve(512, noise=0.01, seed=3)
        assert np.all(np.asarray(hc.values) > 0)

    def test_deterministic_in_seed(self):
        a = make_yield_curve(64, seed=7)
        b = make_yield_curve(64, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = make_yield_curve(64, seed=7)
        b = make_yield_curve(64, seed=8)
        assert a != b

    def test_too_few_points_rejected(self):
        with pytest.raises(ValidationError):
            make_yield_curve(1)
        with pytest.raises(ValidationError):
            make_hazard_curve(0)


class TestPortfolioGenerator:
    def test_count_and_bounds(self):
        opts = make_option_portfolio(
            50,
            maturity_range=(1.0, 4.0),
            recovery_range=(0.3, 0.5),
            seed=0,
        )
        assert len(opts) == 50
        assert all(1.0 <= o.maturity <= 4.0 for o in opts)
        assert all(0.3 <= o.recovery_rate <= 0.5 for o in opts)

    def test_frequencies_from_set(self):
        opts = make_option_portfolio(40, frequencies=(2, 4), seed=1)
        assert {o.frequency for o in opts} <= {2, 4}

    def test_deterministic(self):
        a = make_option_portfolio(10, seed=5)
        b = make_option_portfolio(10, seed=5)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_option_portfolio(0)
        with pytest.raises(ValidationError):
            make_option_portfolio(5, maturity_range=(2.0, 1.0))
        with pytest.raises(ValidationError, match="maturity_range must satisfy"):
            make_option_portfolio(5, maturity_range=(1.0, float("inf")))
        with pytest.raises(ValidationError):
            make_option_portfolio(5, recovery_range=(0.5, 1.5))


class TestWorkloadGenerator:
    def test_reproducible_bundle(self):
        a, b = WorkloadGenerator(seed=42), WorkloadGenerator(seed=42)
        assert a.yield_curve(32) == b.yield_curve(32)
        assert a.portfolio(5) == b.portfolio(5)

    def test_streams_are_independent(self):
        wg = WorkloadGenerator(seed=42)
        assert wg.yield_curve(32) != wg.yield_curve(32)
