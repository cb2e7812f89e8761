"""Unit tests for scenario generation.

``monte_carlo`` draws a whole set in one call and writes its tensor
directly; :class:`TestBulkDraw` pins that, byte for byte, to the
per-scenario loop it replaced, kept here as the reference.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.risk import ONE_BP
from repro.errors import ValidationError
from repro.risk.scenarios import (
    CALM_STRESSED_REGIMES,
    DEFAULT_TENOR_EDGES,
    Regime,
    Scenario,
    ScenarioSet,
    ScenarioView,
    bucketed_shocks,
    historical_replay,
    monte_carlo,
    parallel_shocks,
    recovery_shocks,
    tenor_buckets,
)
from repro.workloads.history import make_curve_history
from repro.workloads.scenarios import PaperScenario


class TestScenarioTypes:
    def test_scenario_requires_label(self, yield_curve, hazard_curve):
        with pytest.raises(ValidationError):
            Scenario(label="", yield_curve=yield_curve, hazard_curve=hazard_curve)

    def test_recovery_shift_bounds(self, yield_curve, hazard_curve):
        with pytest.raises(ValidationError):
            Scenario(
                label="x",
                yield_curve=yield_curve,
                hazard_curve=hazard_curve,
                recovery_shift=1.0,
            )

    def test_set_requires_scenarios(self, yield_curve, hazard_curve):
        with pytest.raises(ValidationError):
            ScenarioSet(
                name="empty",
                base_yield=yield_curve,
                base_hazard=hazard_curve,
                scenarios=(),
            )

    def test_set_iteration_and_labels(self, yield_curve, hazard_curve):
        s = parallel_shocks(yield_curve, hazard_curve)
        assert len(s) == len(list(s)) == len(s.labels)
        assert s[0].label == s.labels[0]


class TestTenorBuckets:
    def test_default_edges_tile(self):
        buckets = tenor_buckets(DEFAULT_TENOR_EDGES)
        for (_, hi), (lo, _) in zip(buckets, buckets[1:]):
            assert hi == lo

    def test_bad_edges_rejected(self):
        with pytest.raises(ValidationError):
            tenor_buckets([1.0])
        with pytest.raises(ValidationError):
            tenor_buckets([1.0, 1.0, 2.0])

    @pytest.mark.parametrize("edge", [math.nan, math.inf])
    def test_non_finite_edges_rejected(self, edge):
        with pytest.raises(ValidationError, match="must be finite"):
            tenor_buckets([0.0, edge, 5.0])
        with pytest.raises(ValidationError, match="must be finite"):
            tenor_buckets([0.0, 5.0, edge])


class TestParallelShocks:
    def test_one_scenario_per_bump(self, yield_curve, hazard_curve):
        s = parallel_shocks(
            yield_curve,
            hazard_curve,
            hazard_bumps_bps=(10.0, 50.0),
            rate_bumps_bps=(25.0,),
        )
        assert len(s) == 3
        assert s.labels == ("hazard+10bp", "hazard+50bp", "rates+25bp")

    def test_hazard_bump_moves_hazard_only(self, yield_curve, hazard_curve):
        s = parallel_shocks(
            yield_curve, hazard_curve, hazard_bumps_bps=(10.0,), rate_bumps_bps=()
        )
        sc = s[0]
        assert sc.yield_curve is yield_curve
        np.testing.assert_allclose(
            np.asarray(sc.hazard_curve.values),
            np.asarray(hazard_curve.values) + 10 * ONE_BP,
        )

    def test_down_bump_floors_at_zero(self, yield_curve, hazard_curve):
        s = parallel_shocks(
            yield_curve,
            hazard_curve,
            hazard_bumps_bps=(-1e4,),
            rate_bumps_bps=(),
        )
        assert np.all(np.asarray(s[0].hazard_curve.values) >= 0.0)

    def test_no_bumps_rejected(self, yield_curve, hazard_curve):
        with pytest.raises(ValidationError):
            parallel_shocks(
                yield_curve, hazard_curve, hazard_bumps_bps=(), rate_bumps_bps=()
            )


class TestBucketedShocks:
    def test_one_scenario_per_bucket(self, yield_curve, hazard_curve):
        s = bucketed_shocks(yield_curve, hazard_curve)
        assert len(s) == len(tenor_buckets(DEFAULT_TENOR_EDGES))

    def test_buckets_partition_the_bump(self, yield_curve, hazard_curve):
        """Summing the bucketed curves' deviations recovers one parallel
        bump at every knot (the buckets tile without overlap)."""
        bump = ONE_BP
        s = bucketed_shocks(yield_curve, hazard_curve, bump=bump)
        base = np.asarray(hazard_curve.values)
        total = sum(
            np.asarray(sc.hazard_curve.values) - base for sc in s
        )
        np.testing.assert_allclose(total, np.full_like(base, bump))

    def test_yield_variant(self, yield_curve, hazard_curve):
        s = bucketed_shocks(yield_curve, hazard_curve, curve="yield")
        assert all(sc.hazard_curve is hazard_curve for sc in s)

    def test_bad_curve_kind(self, yield_curve, hazard_curve):
        with pytest.raises(ValidationError):
            bucketed_shocks(yield_curve, hazard_curve, curve="fx")


class TestRecoveryShocks:
    def test_shifts_carried(self, yield_curve, hazard_curve):
        s = recovery_shocks(yield_curve, hazard_curve, shifts=(-0.1, 0.1))
        assert [sc.recovery_shift for sc in s] == [-0.1, 0.1]
        assert all(sc.hazard_curve is hazard_curve for sc in s)


class TestHistoricalReplay:
    def test_one_scenario_per_move(self, yield_curve, hazard_curve):
        history = make_curve_history(9, seed=3)
        s = historical_replay(yield_curve, hazard_curve, history)
        assert len(s) == history.n_moves == 8

    def test_replay_preserves_base_grid(self, yield_curve, hazard_curve):
        history = make_curve_history(4, n_points=16, seed=3)
        s = historical_replay(yield_curve, hazard_curve, history)
        for sc in s:
            np.testing.assert_array_equal(sc.yield_curve.times, yield_curve.times)
            np.testing.assert_array_equal(sc.hazard_curve.times, hazard_curve.times)

    def test_moves_are_applied(self, yield_curve, hazard_curve):
        history = make_curve_history(8, seed=3)
        s = historical_replay(yield_curve, hazard_curve, history)
        assert any(
            not np.array_equal(sc.yield_curve.values, yield_curve.values)
            for sc in s
        )


class TestMonteCarlo:
    def test_deterministic_in_seed(self, yield_curve, hazard_curve):
        a = monte_carlo(yield_curve, hazard_curve, 5, seed=11)
        b = monte_carlo(yield_curve, hazard_curve, 5, seed=11)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(
                sa.hazard_curve.values, sb.hazard_curve.values
            )
            np.testing.assert_array_equal(
                sa.yield_curve.values, sb.yield_curve.values
            )

    def test_different_seeds_differ(self, yield_curve, hazard_curve):
        a = monte_carlo(yield_curve, hazard_curve, 3, seed=1)
        b = monte_carlo(yield_curve, hazard_curve, 3, seed=2)
        assert not np.array_equal(
            a[0].hazard_curve.values, b[0].hazard_curve.values
        )

    def test_hazards_never_negative(self, yield_curve, hazard_curve):
        s = monte_carlo(
            yield_curve, hazard_curve, 50, seed=11, hazard_vol_bps=500.0
        )
        for sc in s:
            assert np.all(np.asarray(sc.hazard_curve.values) >= 0.0)

    def test_regime_mixture_labels(self, yield_curve, hazard_curve):
        s = monte_carlo(
            yield_curve,
            hazard_curve,
            40,
            seed=11,
            regimes=CALM_STRESSED_REGIMES,
        )
        names = {lbl.split(":")[-1] for lbl in s.labels}
        assert names == {"calm", "stressed"}
        assert s.name == "mc-mixture"

    def test_stressed_regime_widens_credit(self, yield_curve, hazard_curve):
        """A certain 'stressed' regime with a positive drift raises the
        mean hazard level versus the no-regime draw."""
        stressed_only = (Regime(name="stressed", weight=1.0, hazard_drift_bps=50.0),)
        base = monte_carlo(yield_curve, hazard_curve, 20, seed=11)
        stressed = monte_carlo(
            yield_curve, hazard_curve, 20, seed=11, regimes=stressed_only
        )
        mean = lambda s: np.mean(
            [np.mean(np.asarray(sc.hazard_curve.values)) for sc in s]
        )
        assert mean(stressed) > mean(base)

    def test_recovery_vol(self, yield_curve, hazard_curve):
        s = monte_carlo(
            yield_curve, hazard_curve, 10, seed=11, recovery_vol=0.05
        )
        assert any(sc.recovery_shift != 0.0 for sc in s)

    def test_bad_parameters(self, yield_curve, hazard_curve):
        with pytest.raises(ValidationError):
            monte_carlo(yield_curve, hazard_curve, 0)
        with pytest.raises(ValidationError):
            monte_carlo(yield_curve, hazard_curve, 1, tenor_correlation=1.0)
        with pytest.raises(ValidationError):
            monte_carlo(yield_curve, hazard_curve, 1, credit_rates_correlation=-1.0)
        with pytest.raises(ValidationError):
            monte_carlo(yield_curve, hazard_curve, 1, hazard_vol_bps=-1.0)
        for n in (2.5, True, math.nan, np.float64(3.0)):
            with pytest.raises(ValidationError, match="n_scenarios"):
                monte_carlo(yield_curve, hazard_curve, n)
        for name in ("hazard_vol_bps", "rate_vol_bps", "recovery_vol"):
            for vol in (-1.0, math.nan, math.inf):
                with pytest.raises(ValidationError, match=name):
                    monte_carlo(yield_curve, hazard_curve, 1, **{name: vol})
        # A NumPy integer counts like a plain one.
        assert len(monte_carlo(yield_curve, hazard_curve, np.int64(2))) == 2

    def test_bad_regime(self):
        with pytest.raises(ValidationError):
            Regime(name="", weight=1.0)
        with pytest.raises(ValidationError):
            Regime(name="x", weight=0.0)
        with pytest.raises(ValidationError):
            Regime(name="x", weight=1.0, hazard_scale=0.0)


class TestScenarioView:
    def test_reads_build_each_scenario_once(self, yield_curve, hazard_curve):
        s = monte_carlo(yield_curve, hazard_curve, 6, seed=3, recovery_vol=0.05)
        assert isinstance(s.scenarios, ScenarioView)
        assert s.tensor is s.scenarios.tensor
        assert s[2] is s[2] is s.scenarios[-4] is list(s)[2]
        assert s.scenarios[1:3] == (s[1], s[2])
        first = s[0]
        np.testing.assert_array_equal(
            first.yield_curve.values, s.tensor.yield_values[0]
        )
        np.testing.assert_array_equal(
            first.hazard_curve.times, s.tensor.hazard_times
        )
        assert first.recovery_shift == s.tensor.recovery_shifts[0]
        assert first.label == s.labels[0] == "mc-0"
        with pytest.raises(IndexError):
            s[6]

    @pytest.mark.parametrize(
        "name,row,value",
        [
            ("yield_values", 1, math.nan),
            ("hazard_values", 2, -1e-4),
            ("hazard_values", 0, math.inf),
            ("recovery_shifts", 1, 1.0),
        ],
    )
    def test_bad_rows_refused_by_name(
        self, yield_curve, hazard_curve, name, row, value
    ):
        tensor = monte_carlo(yield_curve, hazard_curve, 3, seed=3).tensor
        cells = getattr(tensor, name).copy()
        cells[row] = value
        bad = dataclasses.replace(tensor, **{name: cells})
        with pytest.raises(ValidationError, match=f"{name} .*row {row} is not"):
            ScenarioView(bad, ("a", "b", "c"))

    def test_labels_and_grids_checked(self, yield_curve, hazard_curve):
        tensor = monte_carlo(yield_curve, hazard_curve, 3, seed=3).tensor
        for labels in (("a", "b"), ("a", "", "c")):
            with pytest.raises(ValidationError, match="label"):
                ScenarioView(tensor, labels)
        times = tensor.yield_times.copy()
        times[1] = times[0]
        with pytest.raises(ValidationError, match="yield_times"):
            ScenarioView(
                dataclasses.replace(tensor, yield_times=times), ("a", "b", "c")
            )


#: Short curves keep the reference loop fast at 300 scenarios.
_SC = PaperScenario(n_rates=64, n_options=4)
_YC, _HC = _SC.yield_curve(), _SC.hazard_curve()


def _loop_reference(n, *, seed, edges, recovery_vol, regimes):
    """``monte_carlo``'s per-scenario loop before it drew in bulk, at the
    default volatilities and correlations: its yield rows, hazard rows,
    recovery shifts and labels."""
    n_b = len(edges) - 1
    kms = 0.9 ** np.abs(np.subtract.outer(np.arange(n_b), np.arange(n_b)))
    chol = np.linalg.cholesky(np.kron(np.array([[1.0, -0.25], [-0.25, 1.0]]), kms))
    gen = np.random.default_rng(seed)
    picks = None
    if regimes:
        weights = np.asarray([r.weight for r in regimes], dtype=np.float64)
        picks = gen.choice(len(regimes), size=n, p=weights / weights.sum())
    upper = np.asarray(edges[1:], dtype=np.float64)
    yc_bucket = np.minimum(np.searchsorted(upper, _YC.times), n_b - 1)
    hz_bucket = np.minimum(np.searchsorted(upper, _HC.times), n_b - 1)
    yc_rows = np.empty((n, len(_YC)))
    hz_rows = np.empty((n, len(_HC)))
    shifts = np.zeros(n)
    labels = []
    for s in range(n):
        z = chol @ gen.standard_normal(2 * n_b)
        hz_shocks = z[:n_b] * 25.0 * ONE_BP
        yc_shocks = z[n_b:] * 10.0 * ONE_BP
        label = f"mc-{s}"
        if picks is not None:
            regime = regimes[picks[s]]
            hz_shocks = hz_shocks * regime.hazard_scale + (
                regime.hazard_drift_bps * ONE_BP
            )
            yc_shocks = yc_shocks * regime.rate_scale
            label = f"mc-{s}:{regime.name}"
        if recovery_vol > 0:
            shifts[s] = float(np.clip(gen.normal(0.0, recovery_vol), -0.5, 0.5))
        yc_rows[s] = _YC.values + yc_shocks[yc_bucket]
        hz_rows[s] = np.maximum(_HC.values + hz_shocks[hz_bucket], 0.0)
        labels.append(label)
    return yc_rows, hz_rows, shifts, tuple(labels)


class TestBulkDraw:
    def test_normal_draws_as_a_scaled_standard_normal(self):
        """The bulk draw reads a recovery shift as ``0 + s * x``, where
        the loop called ``normal(0, s)``: on the running NumPy both take
        the same next draw of the stream and round alike."""
        for s in (1e-3, 0.05, 0.3):
            a, b = np.random.default_rng(11), np.random.default_rng(11)
            loop = np.array(
                [[*a.standard_normal(4), a.normal(0.0, s)] for _ in range(200)]
            )
            bulk = b.standard_normal((200, 5))
            bulk[:, -1] = 0.0 + s * bulk[:, -1]
            assert loop.tobytes() == bulk.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        recovery_vol=st.sampled_from([0.0, 0.05]) | st.floats(1e-4, 2.0),
        regimes=st.sampled_from([
            None,
            CALM_STRESSED_REGIMES,
            (Regime(name="only", weight=1.0, hazard_scale=2.0, rate_scale=0.5,
                    hazard_drift_bps=-5.0),),
        ]),
        edges=st.lists(
            st.floats(0.05, 40.0), min_size=1, max_size=6, unique=True
        ).map(lambda xs: (0.0, *sorted(xs))),
    )
    @settings(max_examples=60, deadline=None)
    def test_tensor_and_labels_equal_the_loop(
        self, seed, n, recovery_vol, regimes, edges
    ):
        shocks = monte_carlo(
            _YC, _HC, n, seed=seed, edges=edges, recovery_vol=recovery_vol,
            regimes=regimes,
        )
        yc_rows, hz_rows, shifts, labels = _loop_reference(
            n, seed=seed, edges=edges, recovery_vol=recovery_vol,
            regimes=regimes,
        )
        t = shocks.tensor
        assert t.yield_values.tobytes() == yc_rows.tobytes()
        assert t.hazard_values.tobytes() == hz_rows.tobytes()
        assert t.recovery_shifts.tobytes() == shifts.tobytes()
        assert t.yield_times is _YC.times and t.hazard_times is _HC.times
        assert shocks.labels == labels
