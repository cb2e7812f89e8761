"""Property-based tests pinning batched repricing bit-identical to looping.

The batched scenario-tensor kernel is a pure throughput optimisation: for
any book, any scenario set, any chunk size and any cluster shape it must
produce **bit-identical** floats to the per-scenario
``price_packed_book`` loop.  These tests enforce that with ``numpy.testing.assert_array_equal``
(no tolerance) at three levels:

1. the raw kernel: ``price_packed_many`` versus a ``price_packed_book``
   loop;
2. the batched curve evaluation: ``interp_many`` versus ``np.interp``;
3. the risk stack: engine PVs/P&L, VaR/ES and CS01/IR01 ladders with
   ``batch=True`` versus ``batch=False``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curves import HazardCurve, YieldCurve, interp_many
from repro.core.vector_pricing import (
    PackedPortfolio,
    price_packed_book,
    price_packed_many,
)
from repro.risk.engine import ScenarioRiskEngine, make_book
from repro.risk.measures import (
    cs01_ladder,
    expected_shortfall,
    ir01_ladder,
    tail_measures,
    value_at_risk,
)
from repro.risk.scenarios import monte_carlo
from repro.workloads.scenarios import PaperScenario

SC = PaperScenario(n_rates=48, n_options=4)
YC = SC.yield_curve()
HC = SC.hazard_curve()


class TestInterpManyMatchesNumpy:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_knots=st.integers(min_value=2, max_value=40),
        n_rows=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_np_interp(self, seed, n_knots, n_rows):
        gen = np.random.default_rng(seed)
        xp = np.cumsum(gen.uniform(0.05, 1.0, n_knots))
        fp = gen.normal(size=(n_rows, n_knots))
        # Interior points, exact knot hits, and both out-of-range sides.
        x = np.concatenate(
            [gen.uniform(-1.0, xp[-1] + 2.0, 64), xp, [xp[0], xp[-1]]]
        )
        batched = interp_many(x, xp, fp)
        for row in range(n_rows):
            np.testing.assert_array_equal(
                batched[row], np.interp(x, xp, fp[row])
            )


book_strategy = st.tuples(
    st.sampled_from(["uniform", "skewed", "heterogeneous"]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=1000),
)


class TestKernelBitIdentity:
    @given(
        book=book_strategy,
        n_scenarios=st.integers(min_value=1, max_value=16),
        chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
        mc_seed=st.integers(min_value=0, max_value=500),
        recovery_vol=st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=25, deadline=None)
    def test_price_packed_many_matches_per_scenario_loop(
        self, book, n_scenarios, chunk_size, mc_seed, recovery_vol
    ):
        workload, n, seed = book
        packed = PackedPortfolio.pack(make_book(workload, n, seed=seed).options)
        shocks = monte_carlo(
            YC, HC, n_scenarios, seed=mc_seed, recovery_vol=recovery_vol
        )
        tensor = shocks.tensor
        spreads, legs = price_packed_many(
            packed,
            tensor.yield_times,
            tensor.yield_values,
            tensor.hazard_times,
            tensor.hazard_values,
            recovery_shifts=tensor.recovery_shifts,
            chunk_size=chunk_size,
        )
        for i, s in enumerate(shocks):
            recovery = packed.recovery
            if s.recovery_shift != 0.0:
                recovery = np.clip(recovery + s.recovery_shift, 0.0, 0.999)
            sp_i, legs_i = price_packed_book(
                packed, s.yield_curve, s.hazard_curve, recovery=recovery
            )
            np.testing.assert_array_equal(spreads[i], sp_i)
            for batched_leg, looped_leg in zip(legs, legs_i):
                np.testing.assert_array_equal(batched_leg[i], looped_leg)

    @given(
        n_scenarios=st.integers(min_value=1, max_value=12),
        chunk_a=st.one_of(st.none(), st.integers(min_value=1, max_value=15)),
        chunk_b=st.one_of(st.none(), st.integers(min_value=1, max_value=15)),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=20, deadline=None)
    def test_chunking_is_invisible(self, n_scenarios, chunk_a, chunk_b, seed):
        packed = PackedPortfolio.pack(make_book("skewed", 5, seed=3).options)
        shocks = monte_carlo(YC, HC, n_scenarios, seed=seed)
        tensor = shocks.tensor
        results = [
            price_packed_many(
                packed,
                tensor.yield_times,
                tensor.yield_values,
                tensor.hazard_times,
                tensor.hazard_values,
                chunk_size=c,
            )
            for c in (chunk_a, chunk_b)
        ]
        np.testing.assert_array_equal(results[0][0], results[1][0])
        for leg_a, leg_b in zip(results[0][1], results[1][1]):
            np.testing.assert_array_equal(leg_a, leg_b)


class TestEngineBitIdentity:
    @given(
        book=book_strategy,
        n_scenarios=st.integers(min_value=1, max_value=16),
        n_cards=st.integers(min_value=1, max_value=5),
        policy=st.sampled_from(["round-robin", "least-loaded", "work-stealing"]),
        chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
        mc_seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_revaluation_matches_loop(
        self, book, n_scenarios, n_cards, policy, chunk_size, mc_seed
    ):
        workload, n, seed = book
        engine = ScenarioRiskEngine(
            make_book(workload, n, seed=seed),
            YC,
            HC,
            scenario=SC,
            n_cards=n_cards,
            scheduler=policy,
        )
        shocks = monte_carlo(YC, HC, n_scenarios, seed=mc_seed, recovery_vol=0.03)
        batched = engine.revalue(
            shocks, with_timing=False, batch=True, chunk_size=chunk_size
        )
        looped = engine.revalue(shocks, with_timing=False, batch=False)
        np.testing.assert_array_equal(batched.pv, looped.pv)
        np.testing.assert_array_equal(batched.pnl, looped.pnl)

    @given(
        n_scenarios=st.integers(min_value=2, max_value=32),
        mc_seed=st.integers(min_value=0, max_value=500),
        confidence=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=20, deadline=None)
    def test_tail_measures_unchanged_by_batching(
        self, n_scenarios, mc_seed, confidence
    ):
        engine = ScenarioRiskEngine(make_book("uniform", 4, seed=1), YC, HC,
                                    scenario=SC)
        shocks = monte_carlo(YC, HC, n_scenarios, seed=mc_seed)
        pnl_b = engine.revalue(shocks, with_timing=False, batch=True).pnl
        pnl_l = engine.revalue(shocks, with_timing=False, batch=False).pnl
        assert value_at_risk(pnl_b, confidence) == value_at_risk(
            pnl_l, confidence
        )
        assert expected_shortfall(pnl_b, confidence) == expected_shortfall(
            pnl_l, confidence
        )
        # The single-sort fast path equals the per-call order statistics.
        (measure,) = tail_measures(pnl_b, (confidence,))
        assert measure.var == value_at_risk(pnl_b, confidence)
        assert measure.es == expected_shortfall(pnl_b, confidence)

    @given(book=book_strategy)
    @settings(max_examples=10, deadline=None)
    def test_ladders_unchanged_by_batching(self, book):
        workload, n, seed = book
        engine = ScenarioRiskEngine(
            make_book(workload, n, seed=seed), YC, HC, scenario=SC
        )
        assert cs01_ladder(engine, batch=True) == cs01_ladder(engine, batch=False)
        assert ir01_ladder(engine, batch=True) == ir01_ladder(engine, batch=False)


class TestKernelValidation:
    def test_bad_chunk_size_rejected(self):
        from repro.errors import ValidationError

        packed = PackedPortfolio.pack(make_book("uniform", 2, seed=0).options)
        shocks = monte_carlo(YC, HC, 2, seed=0)
        tensor = shocks.tensor
        with pytest.raises(ValidationError):
            price_packed_many(
                packed,
                tensor.yield_times,
                tensor.yield_values,
                tensor.hazard_times,
                tensor.hazard_values,
                chunk_size=0,
            )
