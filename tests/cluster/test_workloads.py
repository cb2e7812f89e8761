"""Unit tests for the cluster workload generators."""

import numpy as np
import pytest

from repro.cluster.cluster import option_costs
from repro.errors import ValidationError
from repro.workloads.cluster import (
    CLUSTER_WORKLOADS,
    make_cluster_portfolio,
    make_heterogeneous_portfolio,
    make_skewed_portfolio,
    make_uniform_portfolio,
)


class TestRegistry:
    def test_names(self):
        assert set(CLUSTER_WORKLOADS) == {"uniform", "skewed", "heterogeneous"}

    @pytest.mark.parametrize("name", sorted(CLUSTER_WORKLOADS))
    def test_make_cluster_portfolio(self, name):
        assert len(make_cluster_portfolio(name, 7)) == 7

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown cluster workload"):
            make_cluster_portfolio("adversarial", 4)

    @pytest.mark.parametrize("name", sorted(CLUSTER_WORKLOADS))
    def test_deterministic(self, name):
        a = make_cluster_portfolio(name, 9, seed=5)
        b = make_cluster_portfolio(name, 9, seed=5)
        assert a == b


class TestShapes:
    def test_uniform_is_the_benchmark_contract(self):
        options = make_uniform_portfolio(4)
        assert all(o.maturity == 5.0 and o.frequency == 4 for o in options)

    def test_skewed_has_heavier_cost_tail_than_heterogeneous(self):
        skewed = np.array(option_costs(make_skewed_portfolio(200, seed=1)))
        hetero = np.array(
            option_costs(make_heterogeneous_portfolio(200, seed=1))
        )
        skew_ratio = skewed.max() / np.median(skewed)
        hetero_ratio = hetero.max() / np.median(hetero)
        assert skew_ratio > hetero_ratio

    def test_skewed_respects_curve_span(self):
        assert all(
            o.maturity <= 9.5 for o in make_skewed_portfolio(100, seed=2)
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_uniform_portfolio(0)
        with pytest.raises(ValidationError):
            make_skewed_portfolio(5, sigma=0.0)
