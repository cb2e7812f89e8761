"""Unit tests for the serving-layer arrival processes."""

import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.workloads.traffic import (
    TRAFFIC_PROCESSES,
    ChoiceSampler,
    bursty_arrivals,
    diurnal_arrivals,
    make_arrivals,
    multi_tenant_arrivals,
    poisson_arrivals,
    zipf_weights,
)

N = 20_000
RATE = 1000.0


def _gaps(times: np.ndarray) -> np.ndarray:
    return np.diff(np.concatenate(([0.0], times)))


def _cv(gaps: np.ndarray) -> float:
    return float(gaps.std() / gaps.mean())


class TestPoisson:
    def test_mean_rate_pinned(self):
        t = poisson_arrivals(N, RATE, seed=7)
        assert t.shape == (N,)
        assert np.all(np.diff(t) > 0)
        empirical = N / t[-1]
        assert empirical == pytest.approx(RATE, rel=0.03)

    def test_interarrival_moments_pinned(self):
        gaps = _gaps(poisson_arrivals(N, RATE, seed=7))
        # Exponential gaps: mean 1/rate, coefficient of variation 1.
        assert gaps.mean() == pytest.approx(1.0 / RATE, rel=0.03)
        assert _cv(gaps) == pytest.approx(1.0, abs=0.05)

    def test_deterministic_in_seed(self):
        a = poisson_arrivals(500, RATE, seed=3)
        b = poisson_arrivals(500, RATE, seed=3)
        c = poisson_arrivals(500, RATE, seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_start_offset(self):
        t = poisson_arrivals(100, RATE, seed=1, start_s=5.0)
        assert t[0] > 5.0


class TestBursty:
    def test_mean_rate_pinned(self):
        t = bursty_arrivals(N, RATE, seed=7)
        assert np.all(np.diff(t) > 0)
        assert N / t[-1] == pytest.approx(RATE, rel=0.10)

    def test_overdispersed_interarrivals(self):
        """The MMPP hallmark: CV of the gaps well above Poisson's 1."""
        gaps = _gaps(bursty_arrivals(N, RATE, seed=7))
        assert _cv(gaps) > 1.2

    def test_burstier_factor_raises_cv(self):
        mild = _cv(_gaps(bursty_arrivals(N, RATE, burst_factor=2.0, seed=7)))
        wild = _cv(_gaps(bursty_arrivals(N, RATE, burst_factor=12.0, seed=7)))
        assert wild > mild

    def test_validation(self):
        with pytest.raises(ValidationError):
            bursty_arrivals(10, RATE, burst_factor=1.0)
        with pytest.raises(ValidationError):
            bursty_arrivals(10, RATE, burst_fraction=0.0)
        with pytest.raises(ValidationError):
            bursty_arrivals(10, RATE, burst_dwell_s=-1.0)


class TestDiurnal:
    def test_mean_rate_pinned(self):
        t = diurnal_arrivals(N, RATE, seed=7)
        assert np.all(np.diff(t) > 0)
        assert N / t[-1] == pytest.approx(RATE, rel=0.05)

    def test_rate_swings_across_period(self):
        """Binned rates must follow the sinusoid: peak >> trough."""
        period = 4.0
        t = diurnal_arrivals(N, RATE, period_s=period, amplitude=0.8, seed=7)
        phase = (t % period) / period
        peak = np.sum((phase > 0.15) & (phase < 0.35))  # sin ~ +1
        trough = np.sum((phase > 0.65) & (phase < 0.85))  # sin ~ -1
        assert peak / max(trough, 1) > 2.0

    def test_zero_amplitude_is_poisson_like(self):
        gaps = _gaps(diurnal_arrivals(N, RATE, amplitude=0.0, seed=7))
        assert _cv(gaps) == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValidationError):
            diurnal_arrivals(10, RATE, amplitude=1.0)
        with pytest.raises(ValidationError):
            diurnal_arrivals(10, RATE, period_s=0.0)


class TestRegistry:
    def test_registry_names(self):
        assert set(TRAFFIC_PROCESSES) == {"poisson", "bursty", "diurnal"}

    def test_make_arrivals_dispatches(self):
        for name in TRAFFIC_PROCESSES:
            t = make_arrivals(name, 200, RATE, seed=5)
            assert t.shape == (200,)

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown traffic"):
            make_arrivals("fractal", 10, RATE)

    def test_common_validation(self):
        with pytest.raises(ValidationError):
            poisson_arrivals(0, RATE)
        with pytest.raises(ValidationError):
            poisson_arrivals(10, 0.0)
        with pytest.raises(ValidationError):
            poisson_arrivals(10, RATE, start_s=-1.0)
        with pytest.raises(ValidationError, match="rate_hz"):
            poisson_arrivals(10, math.nan)
        with pytest.raises(ValidationError, match="rate_hz"):
            poisson_arrivals(10, math.inf)
        with pytest.raises(ValidationError, match="start_s"):
            poisson_arrivals(10, RATE, start_s=math.nan)


class TestZipf:
    def test_weights_normalised_and_monotone(self):
        w = zipf_weights(64, exponent=1.2)
        assert w.shape == (64,)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_weight_ratio_pinned(self):
        """Zipf's defining moment: p(k) / p(2k) = 2 ** exponent."""
        for s in (0.8, 1.1, 1.5):
            w = zipf_weights(256, exponent=s)
            assert w[0] / w[1] == pytest.approx(2.0**s)
            assert w[3] / w[7] == pytest.approx(2.0**s)

    def test_zero_exponent_is_uniform(self):
        w = zipf_weights(32, exponent=0.0)
        np.testing.assert_allclose(w, 1.0 / 32)

    def test_empirical_popularity_moments_pinned(self):
        """Sampled rank frequencies must match the analytic weights."""
        n_items, s = 16, 1.1
        w = zipf_weights(n_items, exponent=s)
        draws = ChoiceSampler(w).pick(np.random.default_rng(7).random(N))
        counts = np.bincount(draws, minlength=n_items) / N
        np.testing.assert_allclose(counts[:4], w[:4], rtol=0.05)
        # Head concentration: top rank beats the uniform share 1/n.
        assert counts[0] > 2.0 / n_items

    def test_validation(self):
        with pytest.raises(ValidationError):
            zipf_weights(0)
        with pytest.raises(ValidationError):
            zipf_weights(8, exponent=-0.1)


class TestChoiceSampler:
    """``pick`` must replay ``Generator.choice(n, p=p)`` draw for draw.

    A NumPy release that changes how ``choice`` maps its uniform double
    to an index fails here, before it can silently move every gateway
    stream and golden.
    """

    @pytest.mark.parametrize("n", [1, 7, 32, 64, 256, 1000])
    @pytest.mark.parametrize("exponent", [0.0, 0.7, 1.2, 2.5])
    @pytest.mark.parametrize("seed", [0, 7, 24])
    def test_zipf_draws_equal_choice(self, n, exponent, seed):
        p = zipf_weights(n, exponent)
        sampler = ChoiceSampler(p)
        via_choice = np.random.default_rng(seed)
        via_sampler = np.random.default_rng(seed)
        expected = [int(via_choice.choice(n, p=p)) for _ in range(300)]
        assert sampler.pick(via_sampler.random(300)).tolist() == expected
        assert (
            via_sampler.bit_generator.state == via_choice.bit_generator.state
        )

    def test_interleaved_with_other_draws(self):
        """Runs of (deadline, row, contract) doubles drawn as one block,
        with 32-bit bounded draws between runs (the make_tenant_stream
        pattern), stay on the stream of per-sample ``uniform`` and
        ``choice`` calls."""
        rows, opts = zipf_weights(64, 1.2), zipf_weights(32, 1.2)
        row_s, opt_s = ChoiceSampler(rows), ChoiceSampler(opts)
        a, b = np.random.default_rng(17), np.random.default_rng(17)
        for m in (1, 5, 2, 40, 1, 9):
            expected = [
                (
                    a.uniform(1.0, 2.0),
                    int(a.choice(64, p=rows)),
                    int(a.choice(32, p=opts)),
                )
                for _ in range(m)
            ]
            u = b.random((m, 3))
            drawn = zip(
                (1.0 + (2.0 - 1.0) * u[:, 0]).tolist(),
                row_s.pick(u[:, 1]).tolist(),
                opt_s.pick(u[:, 2]).tolist(),
            )
            assert list(drawn) == expected
            assert a.integers(64) == b.integers(64)
        assert a.bit_generator.state == b.bit_generator.state

    def test_a_double_on_a_cdf_step_goes_right(self):
        """``choice``'s ``side="right"``: a double equal to a step of the
        CDF picks the next category, so a zero-weight category is never
        picked, not even by the 0.0 that ``random()`` can return."""
        assert ChoiceSampler([0.0, 1.0]).pick(0.0) == 1
        sampler = ChoiceSampler([0.25, 0.25, 0.5])
        assert sampler.pick([0.0, 0.25, 0.5]).tolist() == [0, 1, 2]

    def test_arbitrary_weights_with_zeros(self):
        p = np.random.default_rng(5).dirichlet(np.ones(40))
        p[[0, 13, 39]] = 0.0
        p /= p.sum()
        sampler = ChoiceSampler(p)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        draws = sampler.pick(b.random(2000)).tolist()
        assert draws == [int(a.choice(40, p=p)) for _ in range(2000)]
        assert not {0, 13, 39} & set(draws)

    @pytest.mark.parametrize(
        "p",
        [
            [],
            [[0.5, 0.5]],
            [0.5, -0.1, 0.6],
            [0.5, np.nan, 0.5],
            [0.5, 0.4],
            [np.inf, 0.0],
        ],
    )
    def test_validation(self, p):
        with pytest.raises(ValidationError):
            ChoiceSampler(p)


class TestMultiTenantArrivals:
    WEIGHTS = (0.5, 0.3, 0.2)

    def test_mean_rate_and_ordering(self):
        times, tenants = multi_tenant_arrivals(N, RATE, self.WEIGHTS, seed=7)
        assert times.shape == tenants.shape == (N,)
        assert np.all(np.diff(times) > 0)
        assert N / times[-1] == pytest.approx(RATE, rel=0.03)

    def test_tenant_shares_pinned(self):
        _, tenants = multi_tenant_arrivals(N, RATE, self.WEIGHTS, seed=7)
        shares = np.bincount(tenants, minlength=3) / N
        np.testing.assert_allclose(shares, self.WEIGHTS, rtol=0.05)

    def test_deterministic_in_seed(self):
        a_t, a_x = multi_tenant_arrivals(500, RATE, self.WEIGHTS, seed=3)
        b_t, b_x = multi_tenant_arrivals(500, RATE, self.WEIGHTS, seed=3)
        c_t, c_x = multi_tenant_arrivals(500, RATE, self.WEIGHTS, seed=4)
        np.testing.assert_array_equal(a_t, b_t)
        np.testing.assert_array_equal(a_x, b_x)
        assert not np.array_equal(a_t, c_t)
        assert not np.array_equal(a_x, c_x)

    def test_dispatches_through_registry(self):
        times, _ = multi_tenant_arrivals(
            2000, RATE, self.WEIGHTS, traffic="bursty", seed=7
        )
        assert np.all(np.diff(times) > 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            multi_tenant_arrivals(10, RATE, ())
        with pytest.raises(ValidationError):
            multi_tenant_arrivals(10, RATE, (0.5, -0.1))
        with pytest.raises(ValidationError):
            multi_tenant_arrivals(10, RATE, (0.0, 0.0))

    @pytest.mark.parametrize(
        "weights",
        [(1.0, math.inf), (1.0, 1e308, 1e308), (0.5, math.nan)],
        ids=["inf", "sum-overflows", "nan"],
    )
    def test_bad_weights_refused_naming_them(self, weights):
        """Refused by name before NumPy's ``choice`` sees them: an
        infinite weight or an overflowing sum once died there with
        ``Probabilities contain NaN`` / ``do not sum to 1``."""
        with pytest.raises(ValidationError, match="tenant_weights must be"):
            multi_tenant_arrivals(10, RATE, weights)
