"""Property tests pinning the unified API bit-identical to the old paths.

The PR-5 redesign routed every pricing flow through
:class:`repro.api.PricingSession`; these properties guarantee the
rewiring is *invisible to the floats*.  For each of the three registered
backends, session-mediated results are pinned **bit-identical**
(``assert_array_equal``, no tolerance) to the pre-redesign entry point
the backend wraps:

* ``vectorized``  — direct ``price_packed_book`` / ``price_packed_many``;
* ``cpu``         — the scalar ``CDSPricer`` loop;
* ``dataflow``    — the engine's direct ``run()``.

A final property pins the full risk pipeline: ``ScenarioRiskEngine``
revaluation through the session reproduces a hand-rolled pre-redesign
revaluation (pack, shard, kernel call per shard, PVs from legs) exactly,
for any card count.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_session
from repro.cluster.scheduler import shard_scenarios
from repro.core.pricing import BASIS_POINTS, CDSPricer
from repro.core.vector_pricing import (
    PackedPortfolio,
    price_packed_book,
    price_packed_many,
)
from repro.engines import VectorizedDataflowEngine
from repro.risk.engine import ScenarioRiskEngine, make_book
from repro.risk.scenarios import monte_carlo
from repro.workloads.scenarios import PaperScenario

SC = PaperScenario(n_rates=48, n_options=4)
YC = SC.yield_curve()
HC = SC.hazard_curve()

book_strategy = st.tuples(
    st.sampled_from(["uniform", "skewed", "heterogeneous"]),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=1000),
)


class TestVectorizedSessionBitIdentity:
    @given(
        book=book_strategy,
        n_scenarios=st.integers(min_value=1, max_value=12),
        chunk_size=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        mc_seed=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=25, deadline=None)
    def test_tensor_matches_direct_kernel(
        self, book, n_scenarios, chunk_size, mc_seed
    ):
        workload, n, seed = book
        options = make_book(workload, n, seed=seed).options
        tensor = monte_carlo(
            YC, HC, n_scenarios, seed=mc_seed, recovery_vol=0.05
        ).tensor
        direct_spreads, direct_legs = price_packed_many(
            PackedPortfolio.pack(options),
            tensor.yield_times,
            tensor.yield_values,
            tensor.hazard_times,
            tensor.hazard_values,
            recovery_shifts=tensor.recovery_shifts,
            want_legs=True,
            chunk_size=chunk_size,
        )
        with open_session("vectorized", options) as session:
            result = session.price_tensor(
                tensor, want_legs=True, chunk_size=chunk_size
            )
        np.testing.assert_array_equal(result.spreads_bps, direct_spreads)
        for mediated, direct in zip(
            (
                result.legs.premium,
                result.legs.protection,
                result.legs.accrual,
                result.legs.survival_at_maturity,
            ),
            direct_legs,
        ):
            np.testing.assert_array_equal(mediated, direct)

    @given(book=book_strategy)
    @settings(max_examples=20, deadline=None)
    def test_state_matches_price_packed_book(self, book):
        workload, n, seed = book
        options = make_book(workload, n, seed=seed).options
        direct, _ = price_packed_book(
            PackedPortfolio.pack(options), YC, HC, want_legs=False
        )
        with open_session("vectorized", options) as session:
            np.testing.assert_array_equal(session.spreads(YC, HC), direct)


class TestCpuSessionBitIdentity:
    @given(book=book_strategy)
    @settings(max_examples=15, deadline=None)
    def test_state_matches_scalar_loop(self, book):
        workload, n, seed = book
        options = make_book(workload, n, seed=seed).options
        pricer = CDSPricer(yield_curve=YC, hazard_curve=HC)
        loop = np.asarray([pricer.price(o).spread_bps for o in options])
        with open_session("cpu", options) as session:
            np.testing.assert_array_equal(session.spreads(YC, HC), loop)

    @given(
        n_scenarios=st.integers(min_value=1, max_value=5),
        mc_seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=10, deadline=None)
    def test_negotiated_tensor_matches_scalar_loop(self, n_scenarios, mc_seed):
        options = make_book("heterogeneous", 3, seed=9).options
        shocks = monte_carlo(YC, HC, n_scenarios, seed=mc_seed)
        with open_session("cpu", options) as session:
            mediated = session.price_tensor(shocks.tensor).spreads_bps
        for i, s in enumerate(shocks):
            pricer = CDSPricer(
                yield_curve=s.yield_curve, hazard_curve=s.hazard_curve
            )
            loop = np.asarray([pricer.price(o).spread_bps for o in options])
            np.testing.assert_array_equal(mediated[i], loop)


class TestDataflowSessionBitIdentity:
    @given(
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=8, deadline=None)
    def test_state_matches_engine_run(self, n, seed):
        options = make_book("uniform", n, seed=seed).options
        direct = VectorizedDataflowEngine(SC).run(options, YC, HC)
        with open_session("dataflow", options, scenario=SC) as session:
            result = session.price_state(YC, HC)
        np.testing.assert_array_equal(
            result.spreads_bps[0], direct.spreads_bps
        )
        # The simulated timing rides along unchanged.
        assert result.meta["engine_result"].kernel_cycles == direct.kernel_cycles


class TestRiskEngineSessionBitIdentity:
    @given(
        book=book_strategy,
        n_scenarios=st.integers(min_value=1, max_value=10),
        n_cards=st.integers(min_value=1, max_value=4),
        mc_seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=12, deadline=None)
    def test_revaluation_matches_pre_redesign_pipeline(
        self, book, n_scenarios, n_cards, mc_seed
    ):
        """Full pre-redesign revaluation, hand-rolled: pack the book,
        resolve par spreads, one kernel call per card shard, PVs from the
        legs — must equal ScenarioRiskEngine through the session."""
        workload, n, seed = book
        portfolio = make_book(workload, n, seed=seed)
        engine = ScenarioRiskEngine(
            portfolio, YC, HC, scenario=SC, n_cards=n_cards
        )
        shocks = monte_carlo(YC, HC, n_scenarios, seed=mc_seed)
        rev = engine.revalue(shocks, with_timing=False)

        packed = PackedPortfolio.pack(portfolio.options)
        par, _ = price_packed_book(packed, YC, HC, want_legs=False)
        unit_spread = par / BASIS_POINTS
        tensor = shocks.tensor
        expected_pv = np.empty((n_scenarios, len(portfolio)))
        for chunk in shard_scenarios(n_scenarios, n_cards, "least-loaded"):
            if not chunk:
                continue
            idx = np.asarray(chunk, dtype=np.intp)
            _, legs = price_packed_many(
                packed,
                tensor.yield_times,
                tensor.yield_values[idx],
                tensor.hazard_times,
                tensor.hazard_values[idx],
                recovery_shifts=tensor.recovery_shifts[idx],
                want_legs=True,
            )
            premium, protection, accrual, _ = legs
            expected_pv[idx] = protection - unit_spread * (premium + accrual)

        np.testing.assert_array_equal(rev.pv, expected_pv)
        _, base_legs = price_packed_book(packed, YC, HC, want_legs=True)
        base_premium, base_protection, base_accrual, _ = base_legs
        base_pv = base_protection - unit_spread * (base_premium + base_accrual)
        np.testing.assert_array_equal(rev.base_pv, base_pv)
        np.testing.assert_array_equal(
            rev.pnl, (expected_pv - base_pv[None, :]) @ portfolio.notionals
        )
