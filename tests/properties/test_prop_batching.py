"""Property-based tests pinning batched repricing bit-identical to looping.

The batched scenario-tensor kernel is a pure throughput optimisation: for
any book, any scenario set, any chunk size and any cluster shape it must
produce **bit-identical** floats to the per-scenario
``price_packed_book`` loop.  These tests enforce that with ``numpy.testing.assert_array_equal``
(no tolerance) at three levels:

1. the raw kernel: ``price_packed_many`` versus a ``price_packed_book``
   loop, on generated books whose schedule lengths fall in different
   groups of the length-bucketed leg layout, with invalid cells reported
   alike; and the einsum summation rule that layout rests on;
2. the batched curve evaluation: ``InterpPlan`` versus ``np.interp``,
   and ``DiscountPlan`` / ``SurvivalPlan`` (applied to many rows at once,
   then row by row) versus the scalar curves;
3. the risk stack: engine PVs/P&L, VaR/ES and CS01/IR01 ladders with
   ``batch=True`` versus ``batch=False``.
"""

from itertools import chain, zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.curves import (
    DiscountPlan,
    HazardCurve,
    InterpPlan,
    SurvivalPlan,
    YieldCurve,
)
from repro.core.types import CDSOption
from repro.core.vector_pricing import (
    BUCKET_COLUMNS,
    InvalidAnnuityError,
    PackedPortfolio,
    price_packed_book,
    price_packed_many,
    shifted_recovery_row,
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
YT = np.asarray(YC.times)
HT = np.asarray(HC.times)


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
        batched = InterpPlan(x, xp).apply(fp)
        for row in range(n_rows):
            np.testing.assert_array_equal(
                batched[row], np.interp(x, xp, fp[row])
            )


class TestCurvePlansMatchScalarCurves:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_knots=st.integers(min_value=1, max_value=40),
        n_rows=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_scalar_curves(self, seed, n_knots, n_rows):
        gen = np.random.default_rng(seed)
        knots = np.cumsum(gen.uniform(0.05, 1.0, n_knots))
        # t <= 0, interior points, exact knot hits and times beyond the
        # last knot.
        t = np.concatenate(
            [
                [-1.0, 0.0],
                gen.uniform(-0.5, knots[-1] + 3.0, 48),
                knots,
                [knots[-1] + 1.0],
            ]
        )
        rates = gen.uniform(-0.01, 0.08, (n_rows, n_knots))
        hazards = gen.uniform(0.0, 0.2, (n_rows, n_knots))
        discount_plan = DiscountPlan(t, knots)
        survival_plan = SurvivalPlan(t, knots)
        batched_df = discount_plan.apply(rates)
        batched_sv = survival_plan.apply(hazards)
        # The same plans, applied row by row in reverse order, are
        # unchanged by earlier applications.
        for row in reversed(range(n_rows)):
            expected_df = YieldCurve(knots, rates[row]).discount(t)
            expected_sv = HazardCurve(knots, hazards[row]).survival(t)
            np.testing.assert_array_equal(batched_df[row], expected_df)
            np.testing.assert_array_equal(batched_sv[row], expected_sv)
            np.testing.assert_array_equal(
                discount_plan.apply(rates[row])[0], expected_df
            )
            np.testing.assert_array_equal(
                survival_plan.apply(hazards[row])[0], expected_sv
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


#: Contracts of at most 20 payments (one bucket block) and of 36 to 120
#: monthly payments (two blocks up to the book's width).
short_contract = st.builds(
    CDSOption,
    maturity=st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.5, 5.0]),
    frequency=st.sampled_from([1, 2, 4]),
    recovery_rate=st.sampled_from([0.1, 0.4, 0.6]),
)
long_contract = st.builds(
    CDSOption,
    maturity=st.sampled_from([3.0, 4.5, 6.0, 8.25, 10.0]),
    frequency=st.just(12),
    recovery_rate=st.sampled_from([0.1, 0.4, 0.6]),
)


def _price_many(packed, yv, hv, shifts, names, chunk_size):
    """``(spreads, *legs)``, the validity mask, the cell messages and the
    first cell's message of one ``price_packed_many`` call."""
    try:
        spreads, legs = price_packed_many(
            packed, YT, yv, HT, hv, recovery_shifts=shifts,
            chunk_size=chunk_size, row_ids=names,
        )
    except InvalidAnnuityError as err:
        spreads, legs = err.result
        return (
            (spreads, *legs), err.valid, list(err.cell_messages()), str(err)
        )
    return (spreads, *legs), np.ones(spreads.shape, bool), [], None


class TestBucketedLayoutBitIdentity:
    """Chunks of several states price a length-bucketed layout, one-state
    calls the padded one; every cell, valid or not, must agree."""

    @given(
        longs=st.lists(long_contract, min_size=1, max_size=5),
        shorts=st.lists(short_contract, min_size=1, max_size=6),
        n_states=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=10_000),
        nan_cell=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.sampled_from(["yield", "hazard"]),
                st.integers(min_value=0, max_value=47),
            ),
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_chunked_calls_equal_the_per_row_book_kernel(
        self, longs, shorts, n_states, seed, nan_cell
    ):
        # Long and short contracts alternate, so neighbours in book
        # order sit in different groups.
        book = [
            c for c in chain(*zip_longest(longs, shorts)) if c is not None
        ]
        packed = PackedPortfolio.pack(book)
        assert packed.leg_layout(2).order is not None
        gen = np.random.default_rng(seed)
        yv = np.asarray(YC.values) * gen.uniform(0.8, 1.2, (n_states, 1))
        hv = np.asarray(HC.values) * np.exp(
            gen.normal(0.0, 0.2, (n_states, HT.size))
        )
        shifts = np.where(
            gen.random(n_states) < 0.5, gen.normal(0.0, 0.05, n_states), 0.0
        )
        if nan_cell is not None:
            state, curve, knot = nan_cell
            (yv if curve == "yield" else hv)[state % n_states, knot] = np.nan
        names = list(range(100, 100 + n_states))

        # Reference: one call per state, each a one-row chunk on the
        # padded layout; a state without a NaN knot must equal
        # price_packed_book too.
        want_values, want_valid, want_messages = [], [], []
        for r in range(n_states):
            values, valid, messages, _ = _price_many(
                packed, yv[r:r + 1], hv[r:r + 1], shifts[r:r + 1],
                names[r:r + 1], None,
            )
            want_values.append(values)
            want_valid.append(valid)
            want_messages += [((r, k), text) for (_, k), text in messages]
            if np.isfinite(yv[r]).all() and np.isfinite(hv[r]).all():
                spreads, legs = price_packed_book(
                    packed,
                    YieldCurve(YT, yv[r]),
                    HazardCurve(HT, hv[r]),
                    recovery=shifted_recovery_row(packed.recovery, shifts[r]),
                )
                for got, book_row in zip(values, (spreads, *legs)):
                    np.testing.assert_array_equal(got[0], book_row)
        want_first = want_messages[0][1] if want_messages else None

        for chunk_size in (2, None, n_states):
            values, valid, messages, first = _price_many(
                packed, yv, hv, shifts, names, chunk_size
            )
            for got, *rows in zip(values, *want_values):
                np.testing.assert_array_equal(got, np.concatenate(rows))
            np.testing.assert_array_equal(valid, np.concatenate(want_valid))
            assert messages == want_messages
            assert first == want_first


class TestEinsumBlockRule:
    """The premise of the bucketed layout, checked on the running NumPy:
    a row whose terms past its length are exact ``+0.0``, cut at any
    multiple of ``BUCKET_COLUMNS`` at or past that length, sums to the
    float the full padded row sums to, in the two- and three-operand
    einsums of the kernel."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        width=st.integers(min_value=BUCKET_COLUMNS + 1, max_value=160),
    )
    @settings(max_examples=30, deadline=None)
    def test_rows_cut_at_a_block_sum_like_padded_rows(self, seed, width):
        gen = np.random.default_rng(seed)
        m, k = 3, 100
        lengths = gen.integers(1, width + 1, k)
        live = np.arange(width) < lengths[:, None]
        discount = gen.uniform(0.3, 1.0, (m, k, width))
        default = np.where(live, gen.uniform(0.0, 0.02, (m, k, width)), 0.0)
        accruals = np.where(live, gen.uniform(0.08, 0.26, (k, width)), 0.0)
        padded_two = np.einsum("mkj,mkj->mk", discount, default)
        padded_three = np.einsum(
            "mkj,mkj,kj->mk", discount, default, accruals
        )
        for cut in range(BUCKET_COLUMNS, width, BUCKET_COLUMNS):
            rows = lengths <= cut
            d, p = discount[:, rows, :cut], default[:, rows, :cut]
            np.testing.assert_array_equal(
                np.einsum("mkj,mkj->mk", d, p), padded_two[:, rows]
            )
            np.testing.assert_array_equal(
                np.einsum("mkj,mkj,kj->mk", d, p, accruals[rows, :cut]),
                padded_three[:, rows],
            )


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
