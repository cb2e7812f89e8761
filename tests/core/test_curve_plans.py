"""The kernel's curve plans: built once per book and knot grids, never stale.

``price_packed_many`` looks the book's payment times up on the knot grids
once per :class:`PackedPortfolio` and pair of read-only grids
(:meth:`PackedPortfolio.curve_plans`).  These tests pin both halves of
that contract: a replay builds the plans once, and a different or
writable grid never reuses them.
"""

import numpy as np
import pytest

from repro.cluster.batching import BatchQueue
from repro.core import vector_pricing
from repro.core.curves import HazardCurve, YieldCurve
from repro.core.vector_pricing import (
    PackedPortfolio,
    price_packed_book,
    price_packed_many,
)
from repro.risk.engine import ScenarioRiskEngine, make_book
from repro.risk.scenarios import monte_carlo
from repro.serving import QuoteServer, make_market_tape, make_request_stream
from repro.telemetry import KernelProfiler
from repro.workloads.scenarios import PaperScenario


def _price_rows(packed, yt, yv, ht, hv):
    spreads, _ = price_packed_many(packed, yt, yv, ht, hv)
    return spreads


def _looped(packed, yt, yv, ht, hv):
    return np.vstack(
        [
            price_packed_book(packed, YieldCurve(yt, y), HazardCurve(ht, h))[0]
            for y, h in zip(yv, hv)
        ]
    )


def _kernel_calls(profiler: KernelProfiler) -> int:
    return int(profiler.registry.counter("kernel_calls_total").value)


@pytest.fixture
def packed():
    return PackedPortfolio.pack(make_book("heterogeneous", 6, seed=3).options)


@pytest.fixture
def plan_builds(monkeypatch):
    """Count DiscountPlan and SurvivalPlan constructions in the kernel."""
    builds = {"discount": 0, "survival": 0}

    def counting(name, cls):
        def build(*args):
            builds[name] += 1
            return cls(*args)

        return build

    monkeypatch.setattr(
        vector_pricing,
        "DiscountPlan",
        counting("discount", vector_pricing.DiscountPlan),
    )
    monkeypatch.setattr(
        vector_pricing,
        "SurvivalPlan",
        counting("survival", vector_pricing.SurvivalPlan),
    )
    return builds


class TestNoStalePlan:
    def test_alternating_knot_grids(self, packed):
        tapes = [
            make_market_tape(
                PaperScenario(n_rates=n).yield_curve(),
                PaperScenario(n_rates=n).hazard_curve(),
                4,
                seed=5,
            )
            for n in (48, 64)
        ]
        # Both grids change, then only the hazard grid, then only the
        # yield grid.
        for y, h in [(0, 0), (1, 1), (0, 0), (0, 1), (1, 1), (0, 1)]:
            args = (
                tapes[y].yield_times,
                tapes[y].yield_values,
                tapes[h].hazard_times,
                tapes[h].hazard_values,
            )
            np.testing.assert_array_equal(
                _price_rows(packed, *args), _looped(packed, *args)
            )

    def test_writable_grid_mutated_in_place(self, packed):
        yt = np.linspace(0.5, 10.0, 20)
        ht = np.linspace(0.5, 10.0, 20)
        yv = (0.01 + 0.002 * np.sqrt(yt))[None, :]
        hv = (0.005 + 0.001 * ht)[None, :]
        for scale in (1.0, 0.6, 1.0):
            yt[:] = np.linspace(0.5, 10.0, 20) * scale
            ht[:] = np.linspace(0.5, 10.0, 20) * scale
            np.testing.assert_array_equal(
                _price_rows(packed, yt, yv, ht, hv),
                _looped(packed, yt, yv, ht, hv),
            )

    def test_read_only_view_of_a_writable_grid(self, packed):
        owner = np.linspace(0.5, 10.0, 20)
        yt = owner[:]
        yt.flags.writeable = False
        ht = np.linspace(0.5, 10.0, 20)
        ht.flags.writeable = False
        yv = (0.01 + 0.002 * np.sqrt(owner))[None, :]
        hv = (0.005 + 0.001 * ht)[None, :]
        first = _price_rows(packed, yt, yv, ht, hv)
        owner *= 0.6  # changes the read-only view too
        second = _price_rows(packed, yt, yv, ht, hv)
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(second, _looped(packed, yt, yv, ht, hv))


class TestPlansBuiltOnce:
    def test_frozen_grids_reuse_one_plan(self, packed, plan_builds):
        tape = make_market_tape(
            PaperScenario(n_rates=48).yield_curve(),
            PaperScenario(n_rates=48).hazard_curve(),
            8,
            seed=5,
        )
        for row in range(8):
            price_packed_many(
                packed,
                tape.yield_times,
                tape.yield_values[row : row + 1],
                tape.hazard_times,
                tape.hazard_values[row : row + 1],
            )
        assert plan_builds == {"discount": 1, "survival": 1}

    def test_batch1_serve_builds_one_plan(self, plan_builds):
        sc = PaperScenario(n_rates=64, n_options=8)
        server = QuoteServer(
            make_book("heterogeneous", 8, seed=5),
            make_market_tape(sc.yield_curve(), sc.hazard_curve(), 16, seed=3),
            scenario=sc,
            n_cards=2,
            n_engines=2,
            queue=BatchQueue(max_batch=1, linger_s=0.0),
        )
        stream = make_request_stream(
            200, rate_hz=2000.0, n_states=16, n_positions=8, seed=11
        )
        server.serve(stream)
        assert plan_builds == {"discount": 1, "survival": 1}

    def test_four_card_revalue_builds_one_plan(self, plan_builds):
        sc = PaperScenario(n_rates=64, n_options=8)
        engine = ScenarioRiskEngine(
            make_book("heterogeneous", 8, seed=5), scenario=sc, n_cards=4
        )
        shocks = monte_carlo(
            sc.yield_curve(), sc.hazard_curve(), 40, seed=2, recovery_vol=0.05
        )
        with KernelProfiler() as profiler:
            engine.revalue(shocks, with_timing=False)
        assert _kernel_calls(profiler) == 4
        assert plan_builds == {"discount": 1, "survival": 1}
