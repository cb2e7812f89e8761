"""Unit tests for positions, portfolios and the scenario risk engine."""

import numpy as np
import pytest

from repro.core.risk import RiskEngine
from repro.core.types import CDSOption
from repro.errors import ValidationError
from repro.risk.engine import (
    Portfolio,
    Position,
    ScenarioRiskEngine,
    make_book,
)
from repro.risk.scenarios import monte_carlo, parallel_shocks, recovery_shocks


class TestPosition:
    def test_zero_notional_rejected(self, option):
        with pytest.raises(ValidationError):
            Position(option=option, notional=0.0)

    def test_negative_spread_rejected(self, option):
        with pytest.raises(ValidationError):
            Position(option=option, contract_spread_bps=-1.0)

    def test_buyer_flag(self, option):
        assert Position(option=option, notional=2.0).is_buyer
        assert not Position(option=option, notional=-2.0).is_buyer


class TestPortfolio:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Portfolio([])

    def test_from_options_defaults(self, mixed_options):
        p = Portfolio.from_options(mixed_options)
        assert len(p) == len(mixed_options)
        np.testing.assert_array_equal(p.notionals, np.ones(len(mixed_options)))

    def test_from_options_length_mismatch(self, mixed_options):
        with pytest.raises(ValidationError):
            Portfolio.from_options(mixed_options, notionals=[1.0])

    def test_gross_notional(self, option):
        p = Portfolio.from_options([option, option], notionals=[2.0, -3.0])
        assert p.gross_notional == pytest.approx(5.0)


class TestMakeBook:
    def test_deterministic(self):
        a = make_book("skewed", 12, seed=9)
        b = make_book("skewed", 12, seed=9)
        assert a.options == b.options
        np.testing.assert_array_equal(a.notionals, b.notionals)

    def test_has_buyers_and_sellers(self):
        book = make_book("heterogeneous", 40, seed=9)
        signs = np.sign(book.notionals)
        assert (signs > 0).any() and (signs < 0).any()

    def test_buyer_fraction_extremes(self):
        assert all(p.is_buyer for p in make_book(n_positions=20, buyer_fraction=1.0))
        assert not any(
            p.is_buyer for p in make_book(n_positions=20, buyer_fraction=0.0)
        )

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            make_book(buyer_fraction=1.5)


class TestScenarioRiskEngine:
    def test_base_pv_zero_at_par(self, engine):
        np.testing.assert_allclose(engine.base_pv, 0.0, atol=1e-12)

    def test_fixed_contract_spread_shifts_pv(self, risk_scenario, option):
        """A below-par contracted spread makes owned protection valuable."""
        book = Portfolio.from_options([option], contract_spreads_bps=[1.0])
        engine = ScenarioRiskEngine(book, scenario=risk_scenario)
        assert engine.base_pv[0] > 0.0
        assert engine.contract_spreads_bps[0] == 1.0

    def test_pnl_matches_core_risk_engine(self, risk_scenario, option):
        """A 1 bp-equivalent parallel hazard scenario reproduces the
        bump-and-reprice CS01 of repro.core.risk for the same contract."""
        book = Portfolio.from_options([option])
        engine = ScenarioRiskEngine(book, scenario=risk_scenario)
        core = RiskEngine(engine.yield_curve, engine.hazard_curve)
        shocks = parallel_shocks(
            engine.yield_curve,
            engine.hazard_curve,
            hazard_bumps_bps=(core.hazard_bump / 1e-4,),
            rate_bumps_bps=(),
        )
        rev = engine.revalue(shocks, with_timing=False)
        cs01 = core.greeks([option])[0].cs01
        assert rev.pnl[0] == pytest.approx(cs01, rel=1e-9)

    def test_seller_loses_when_credit_worsens(self, risk_scenario, option):
        book = Portfolio.from_options([option], notionals=[-1.0])
        engine = ScenarioRiskEngine(book, scenario=risk_scenario)
        shocks = parallel_shocks(
            engine.yield_curve,
            engine.hazard_curve,
            hazard_bumps_bps=(100.0,),
            rate_bumps_bps=(),
        )
        rev = engine.revalue(shocks, with_timing=False)
        assert rev.pnl[0] < 0.0

    def test_recovery_scenarios_hit_buyers(self, risk_scenario, option):
        """Higher recovery cheapens owned protection."""
        book = Portfolio.from_options([option])
        engine = ScenarioRiskEngine(book, scenario=risk_scenario)
        shocks = recovery_shocks(
            engine.yield_curve, engine.hazard_curve, shifts=(0.1,)
        )
        rev = engine.revalue(shocks, with_timing=False)
        assert rev.pnl[0] < 0.0

    def test_revaluation_shapes_and_extremes(self, engine):
        shocks = monte_carlo(engine.yield_curve, engine.hazard_curve, 12, seed=3)
        rev = engine.revalue(shocks, with_timing=False)
        assert rev.pv.shape == (12, len(engine.portfolio))
        assert rev.pnl.shape == (12,)
        assert rev.position_pnl.shape == rev.pv.shape
        worst_label, worst = rev.worst()
        best_label, best = rev.best()
        assert worst <= best
        assert worst_label in shocks.labels and best_label in shocks.labels
        assert rev.timing is None

    def test_timing_attached_when_requested(self, book, risk_scenario):
        engine = ScenarioRiskEngine(book, scenario=risk_scenario, n_cards=2)
        shocks = monte_carlo(engine.yield_curve, engine.hazard_curve, 6, seed=3)
        rev = engine.revalue(shocks)
        assert rev.timing is not None
        assert rev.timing.n_scenarios == 6
        assert rev.timing.n_cards == 2
        assert rev.timing.makespan_seconds > 0

    def test_sharding_does_not_change_numbers(self, book, risk_scenario):
        shocks = None
        pnls = []
        for cards, policy in [(1, "least-loaded"), (3, "round-robin"),
                              (4, "work-stealing")]:
            engine = ScenarioRiskEngine(
                book, scenario=risk_scenario, n_cards=cards, scheduler=policy
            )
            if shocks is None:
                shocks = monte_carlo(
                    engine.yield_curve, engine.hazard_curve, 10, seed=3
                )
            pnls.append(engine.revalue(shocks, with_timing=False).pnl)
        np.testing.assert_array_equal(pnls[0], pnls[1])
        np.testing.assert_array_equal(pnls[0], pnls[2])

    def test_bad_cards(self, book):
        with pytest.raises(ValidationError):
            ScenarioRiskEngine(book, n_cards=0)

    def test_cluster_backend_revalues_like_the_default(
        self, book, risk_scenario
    ):
        """The engine binds the backend it is given; a cluster backend
        only re-splits the kernel calls, never the numbers."""
        from repro.api import ClusterBackend

        default = ScenarioRiskEngine(book, scenario=risk_scenario, n_cards=2)
        clustered = ScenarioRiskEngine(
            book, scenario=risk_scenario, n_cards=2,
            backend=ClusterBackend(n_cards=3),
        )
        assert default.session.backend_name == "vectorized"
        shocks = monte_carlo(default.yield_curve, default.hazard_curve, 10, seed=3)
        assert np.array_equal(
            clustered.revalue(shocks, with_timing=False).pv,
            default.revalue(shocks, with_timing=False).pv,
        )

    def test_kernel_error_names_tensor_row(self, engine):
        """Pricing rows [5, 3] of a tensor whose row 3 is NaN names
        scenario 3 (not output position 1), the annuity a plain float."""
        from dataclasses import replace

        from repro.serving import make_market_tape

        tape = make_market_tape(engine.yield_curve, engine.hazard_curve, 8, seed=3)
        hazard = tape.hazard_values.copy()
        hazard[3] = np.nan
        with pytest.raises(ValidationError) as err:
            engine.quote_rows(replace(tape, hazard_values=hazard), [5, 3])
        assert str(err.value) == (
            "non-positive risky annuity for scenario 3, option index 0: nan"
        )


class TestQuoteRowsIndices:
    """``quote_rows`` prices exactly the rows it is given, or refuses."""

    @pytest.fixture
    def tape(self, engine):
        from repro.serving import make_market_tape

        return make_market_tape(
            engine.yield_curve, engine.hazard_curve, 8, seed=3
        )

    @pytest.mark.parametrize(
        "rows, shown",
        [
            ([2.7], "[2.7]"),  # truncated, it would price row 2
            ([True], "[True]"),  # as an index, it would price row 1
            (np.array([[1, 2]]), "[[1, 2]]"),
        ],
    )
    def test_non_integer_or_2d_rows_rejected(self, engine, tape, rows, shown):
        with pytest.raises(ValidationError) as err:
            engine.quote_rows(tape, rows)
        assert str(err.value) == (
            f"rows must be 1-D integer indices, got {shown}"
        )

    @pytest.mark.parametrize("rows", [[8], [-1, 2]])
    def test_out_of_range_rows_keep_their_message(self, engine, tape, rows):
        bad = [r for r in rows if not 0 <= r < 8]
        with pytest.raises(ValidationError) as err:
            engine.quote_rows(tape, rows)
        assert str(err.value) == f"rows {bad} fall outside the 8-state tensor"


class TestMixedGridFallback:
    """Batch requested, but the scenario set cannot lower to a tensor."""

    @pytest.fixture
    def mixed_set(self, engine):
        from repro.core.curves import YieldCurve
        from repro.risk.scenarios import Scenario, ScenarioSet

        yc, hc = engine.yield_curve, engine.hazard_curve
        # A hand-built set whose second scenario lives on its own (tiny)
        # yield knot grid — unloweable to one dense tensor.
        other_yc = YieldCurve([1.0, 5.0, 10.0], [0.012, 0.018, 0.022])
        return ScenarioSet(
            name="handmade-mixed",
            base_yield=yc,
            base_hazard=hc,
            scenarios=(
                Scenario(label="base-grid", yield_curve=yc, hazard_curve=hc),
                Scenario(label="coarse-grid", yield_curve=other_yc,
                         hazard_curve=hc, recovery_shift=0.05),
            ),
        )

    def test_emits_no_tensor(self, mixed_set):
        from repro.risk.tensor import ScenarioTensor

        assert mixed_set.tensor is None
        assert ScenarioTensor.try_pack(mixed_set) is None

    def test_batch_request_falls_back_to_loop(self, engine, mixed_set):
        """``batch=True`` on a mixed-grid set silently takes the
        per-scenario loop and matches it bit for bit."""
        batched = engine.revalue(mixed_set, with_timing=False, batch=True)
        looped = engine.revalue(mixed_set, with_timing=False, batch=False)
        np.testing.assert_array_equal(batched.pv, looped.pv)
        np.testing.assert_array_equal(batched.pnl, looped.pnl)

    def test_fallback_matches_manual_per_scenario_pricing(
        self, engine, mixed_set
    ):
        rev = engine.revalue(mixed_set, with_timing=False, batch=True)
        for i, s in enumerate(mixed_set.scenarios):
            expected = engine._unit_pv(
                s.yield_curve, s.hazard_curve, recovery_shift=s.recovery_shift
            )
            np.testing.assert_array_equal(rev.pv[i], expected)
