"""Unit tests for the vectorised batch pricer."""

import numpy as np
import pytest

from repro.core.pricing import CDSPricer
from repro.core.types import CDSOption
from repro.core.vector_pricing import (
    PackedPortfolio,
    VectorCDSPricer,
    portfolio_arrays,
    price_packed_book,
)
from repro.errors import ValidationError


class TestPortfolioArrays:
    def test_shapes(self, mixed_options):
        times, accruals, mask, recovery = portfolio_arrays(mixed_options)
        n = len(mixed_options)
        assert times.shape == accruals.shape == mask.shape
        assert times.shape[0] == n
        assert recovery.shape == (n,)

    def test_mask_counts_match_schedules(self, mixed_options):
        from repro.core.schedule import build_schedule

        _, _, mask, _ = portfolio_arrays(mixed_options)
        for row, o in enumerate(mixed_options):
            assert mask[row].sum() == len(build_schedule(o))

    def test_padding_masked_out(self, mixed_options):
        _, accruals, mask, _ = portfolio_arrays(mixed_options)
        assert np.all(accruals[~mask] == 0.0)

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValidationError):
            portfolio_arrays([])


class TestVectorPricerAgainstReference:
    def test_matches_scalar_pricer(self, yield_curve, hazard_curve, mixed_options):
        vec = VectorCDSPricer(yield_curve, hazard_curve).spreads(mixed_options)
        ref = np.array(
            [
                CDSPricer(yield_curve, hazard_curve).price(o).spread_bps
                for o in mixed_options
            ]
        )
        assert vec == pytest.approx(ref, rel=1e-12, abs=1e-9)

    def test_single_option(self, yield_curve, hazard_curve, option):
        vec = VectorCDSPricer(yield_curve, hazard_curve).spreads([option])
        ref = CDSPricer(yield_curve, hazard_curve).price(option).spread_bps
        assert vec[0] == pytest.approx(ref, rel=1e-12)

    def test_large_homogeneous_batch(self, yield_curve, hazard_curve, option):
        vec = VectorCDSPricer(yield_curve, hazard_curve).spreads([option] * 100)
        assert np.all(vec == vec[0])

    def test_legs_match_reference(self, yield_curve, hazard_curve, mixed_options):
        pricer = VectorCDSPricer(yield_curve, hazard_curve)
        _, legs = pricer.price_portfolio_detailed(mixed_options)
        ref_pricer = CDSPricer(yield_curve, hazard_curve)
        for o, lb in zip(mixed_options, legs):
            ref = ref_pricer.price(o).legs
            assert lb.premium_leg == pytest.approx(ref.premium_leg, rel=1e-12)
            assert lb.protection_leg == pytest.approx(ref.protection_leg, rel=1e-12)
            assert lb.accrual_leg == pytest.approx(ref.accrual_leg, rel=1e-12)
            assert lb.survival_at_maturity == pytest.approx(
                ref.survival_at_maturity, rel=1e-12
            )

    def test_order_preserved(self, yield_curve, hazard_curve, mixed_options):
        fwd, _ = price_packed_book(
            PackedPortfolio.pack(mixed_options), yield_curve, hazard_curve
        )
        rev, _ = price_packed_book(
            PackedPortfolio.pack(mixed_options[::-1]), yield_curve, hazard_curve
        )
        assert fwd == pytest.approx(rev[::-1])


class TestPackedPortfolio:
    def test_pack_matches_portfolio_arrays(self, mixed_options):
        times, accruals, mask, recovery = portfolio_arrays(mixed_options)
        packed = PackedPortfolio.pack(mixed_options)
        np.testing.assert_array_equal(packed.times, times)
        np.testing.assert_array_equal(packed.accruals, accruals)
        np.testing.assert_array_equal(packed.mask, mask)
        np.testing.assert_array_equal(packed.recovery, recovery)
        assert packed.n_options == len(mixed_options)
        assert packed.max_len == times.shape[1]

    def test_unique_times_cover_flat_times(self, mixed_options):
        packed = PackedPortfolio.pack(mixed_options)
        assert packed.unique_times.size <= packed.flat_times.size
        np.testing.assert_array_equal(
            packed.unique_times[packed.unique_inverse], packed.flat_times
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PackedPortfolio(
                np.zeros((2, 3)),
                np.zeros((2, 3)),
                np.ones((3, 2), dtype=bool),
                np.full(2, 0.4),
            )

    def test_non_benign_padding_rejected(self, mixed_options):
        """The mask-free kernels demand the portfolio_arrays padding
        (final time repeated, zero accrual) — other paddings must fail
        loudly instead of pricing wrong."""
        times, accruals, mask, recovery = portfolio_arrays(mixed_options)
        if mask.all():  # needs at least one ragged row to exercise
            pytest.skip("mixed_options produced a rectangular book")
        zero_padded = times.copy()
        zero_padded[~mask] = 0.0
        with pytest.raises(ValidationError):
            PackedPortfolio(zero_padded, accruals, mask, recovery)
        bad_accruals = accruals.copy()
        bad_accruals[~mask] = 0.25
        with pytest.raises(ValidationError):
            PackedPortfolio(times, bad_accruals, mask, recovery)


class TestPricePackedBook:
    def test_matches_vector_pricer(
        self, yield_curve, hazard_curve, mixed_options
    ):
        pricer = VectorCDSPricer(yield_curve, hazard_curve)
        spreads, legs = pricer.price_portfolio_detailed(mixed_options)
        sp, (premium, protection, accrual, surv) = price_packed_book(
            PackedPortfolio.pack(mixed_options), yield_curve, hazard_curve
        )
        np.testing.assert_array_equal(sp, spreads)
        for i, lb in enumerate(legs):
            assert lb.premium_leg == premium[i]
            assert lb.protection_leg == protection[i]
            assert lb.accrual_leg == accrual[i]
            assert lb.survival_at_maturity == surv[i]

    def test_want_legs_false(self, yield_curve, hazard_curve, mixed_options):
        spreads, legs = price_packed_book(
            PackedPortfolio.pack(mixed_options),
            yield_curve,
            hazard_curve,
            want_legs=False,
        )
        assert legs is None
        assert spreads.shape == (len(mixed_options),)


class TestPricePackedMany:
    def test_scenario_axis_leads(self, yield_curve, hazard_curve, mixed_options):
        from repro.core.vector_pricing import price_packed_many

        packed = PackedPortfolio.pack(mixed_options)
        n_scen = 3
        yv = np.tile(np.asarray(yield_curve.values), (n_scen, 1))
        hv = np.tile(np.asarray(hazard_curve.values), (n_scen, 1))
        spreads, legs = price_packed_many(
            packed, yield_curve.times, yv, hazard_curve.times, hv
        )
        assert spreads.shape == (n_scen, len(mixed_options))
        assert all(leg.shape == spreads.shape for leg in legs)
        # Identical states price identically.
        np.testing.assert_array_equal(spreads[0], spreads[1])
        np.testing.assert_array_equal(spreads[0], spreads[2])

    def test_empty_scenario_axis_rejected(
        self, yield_curve, hazard_curve, mixed_options
    ):
        from repro.core.vector_pricing import price_packed_many

        packed = PackedPortfolio.pack(mixed_options)
        with pytest.raises(ValidationError):
            price_packed_many(
                packed,
                yield_curve.times,
                np.empty((0, len(yield_curve))),
                hazard_curve.times,
                np.empty((0, len(hazard_curve))),
            )

    def test_scenario_count_mismatch_rejected(
        self, yield_curve, hazard_curve, mixed_options
    ):
        from repro.core.vector_pricing import price_packed_many

        packed = PackedPortfolio.pack(mixed_options)
        with pytest.raises(ValidationError):
            price_packed_many(
                packed,
                yield_curve.times,
                np.tile(np.asarray(yield_curve.values), (3, 1)),
                hazard_curve.times,
                np.tile(np.asarray(hazard_curve.values), (2, 1)),
            )

    def test_recovery_shift_shape_rejected(
        self, yield_curve, hazard_curve, mixed_options
    ):
        from repro.core.vector_pricing import price_packed_many

        packed = PackedPortfolio.pack(mixed_options)
        with pytest.raises(ValidationError):
            price_packed_many(
                packed,
                yield_curve.times,
                np.tile(np.asarray(yield_curve.values), (2, 1)),
                hazard_curve.times,
                np.tile(np.asarray(hazard_curve.values), (2, 1)),
                recovery_shifts=np.zeros(3),
            )

    def test_want_legs_false(self, yield_curve, hazard_curve, mixed_options):
        from repro.core.vector_pricing import price_packed_many

        packed = PackedPortfolio.pack(mixed_options)
        spreads, legs = price_packed_many(
            packed,
            yield_curve.times,
            np.tile(np.asarray(yield_curve.values), (2, 1)),
            hazard_curve.times,
            np.tile(np.asarray(hazard_curve.values), (2, 1)),
            want_legs=False,
        )
        assert legs is None
        assert spreads.shape == (2, len(mixed_options))


class TestValueRowWidth:
    """Value rows must be exactly as wide as their knot grid.

    The book pays out to 9 y on an 8-knot yield grid ending at 5 y, so
    an extra yield column would otherwise become the rate beyond the
    last knot and move the spreads silently.
    """

    YT = np.linspace(0.625, 5.0, 8)
    HT = np.linspace(0.5, 10.0, 20)

    @pytest.fixture
    def packed(self):
        return PackedPortfolio.pack(
            [
                CDSOption(maturity=9.0, frequency=4, recovery_rate=0.4),
                CDSOption(maturity=3.0, frequency=2, recovery_rate=0.4),
            ]
        )

    @pytest.mark.parametrize(
        "yield_width, hazard_width, message",
        [
            # one extra yield column, three short, a one-column hazard row
            (9, 20, "yield rows of width 9 do not match a 8-knot grid"),
            (5, 20, "yield rows of width 5 do not match a 8-knot grid"),
            (8, 1, "hazard rows of width 1 do not match a 20-knot grid"),
        ],
    )
    def test_mismatched_width_rejected(
        self, packed, yield_width, hazard_width, message
    ):
        from repro.core.vector_pricing import price_packed_many

        with pytest.raises(ValidationError, match=message):
            price_packed_many(
                packed,
                self.YT,
                np.full((1, yield_width), 0.02),
                self.HT,
                np.full((1, hazard_width), 0.01),
            )


class TestAutoChunkSize:
    def test_scales_inversely_with_grid(self):
        from repro.core.vector_pricing import auto_chunk_size

        small_grid = auto_chunk_size(10, 20)
        large_grid = auto_chunk_size(1000, 200)
        assert small_grid > large_grid
        assert large_grid >= 1


class TestShiftedRecovery:
    def test_conditional_clamp(self):
        from repro.core.vector_pricing import shifted_recovery

        recovery = np.array([0.4, 0.9995])
        out = shifted_recovery(recovery, np.array([0.0, 0.2, -0.5]))
        # Zero-shift rows pass through without the clamp.
        np.testing.assert_array_equal(out[0], recovery)
        np.testing.assert_array_equal(out[1], np.clip(recovery + 0.2, 0.0, 0.999))
        np.testing.assert_array_equal(out[2], np.clip(recovery - 0.5, 0.0, 0.999))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, bad):
        from repro.core.vector_pricing import shifted_recovery

        with pytest.raises(ValidationError, match="recovery shift for scenario 1"):
            shifted_recovery(np.array([0.4, 0.5]), np.array([0.1, bad, 0.0]))

    def test_all_zero_shifts_pass_the_base_rates_through(self):
        from repro.core.vector_pricing import shifted_recovery

        recovery = np.array([0.4, 0.5])
        out = shifted_recovery(recovery, np.zeros(3))
        assert out.shape == (3, 2)
        np.testing.assert_array_equal(out, np.tile(recovery, (3, 1)))


class TestShiftedRecoveryRow:
    def test_zero_shift_means_unshifted(self):
        from repro.core.vector_pricing import shifted_recovery_row

        assert shifted_recovery_row(np.array([0.4]), 0.0) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_shift_rejected(self, bad):
        from repro.core.vector_pricing import shifted_recovery_row

        with pytest.raises(ValidationError, match="non-finite recovery shift"):
            shifted_recovery_row(np.array([0.4, 0.5]), bad)


class TestNonFiniteShiftInKernel:
    def test_error_names_the_tensor_row(
        self, yield_curve, hazard_curve, mixed_options
    ):
        from repro.core.vector_pricing import price_packed_many

        packed = PackedPortfolio.pack(mixed_options)
        with pytest.raises(ValidationError, match="scenario 41"):
            price_packed_many(
                packed,
                yield_curve.times,
                np.tile(np.asarray(yield_curve.values), (3, 1)),
                hazard_curve.times,
                np.tile(np.asarray(hazard_curve.values), (3, 1)),
                recovery_shifts=np.array([0.0, np.nan, 0.0]),
                row_ids=np.array([40, 41, 42]),
            )


class TestInvalidAnnuityReport:
    """A NaN knot fails cells, not the call: the kernel prices every row
    and reports which cells have a valid annuity."""

    @pytest.mark.parametrize("chunk_size", [None, 1])
    def test_report_carries_every_row_and_the_mask(
        self, yield_curve, hazard_curve, mixed_options, chunk_size
    ):
        from repro.core.vector_pricing import (
            InvalidAnnuityError,
            price_packed_many,
        )

        packed = PackedPortfolio.pack(mixed_options)
        yv = np.tile(np.asarray(yield_curve.values), (4, 1))
        clean_hv = np.tile(np.asarray(hazard_curve.values), (4, 1))
        hv = clean_hv.copy()
        knot = int(np.searchsorted(hazard_curve.times, 3.0))
        hv[2, knot] = np.nan  # reaches the contracts beyond 3 years
        args = (packed, yield_curve.times, yv, hazard_curve.times)
        clean_spreads, clean_legs = price_packed_many(
            *args, clean_hv, chunk_size=chunk_size
        )
        with pytest.raises(InvalidAnnuityError) as err:
            price_packed_many(
                *args, hv, chunk_size=chunk_size, row_ids=[10, 11, 12, 13]
            )
        report = err.value
        spreads, legs = report.result
        premium, _, accrual, _ = legs
        annuity = premium + accrual
        np.testing.assert_array_equal(
            report.valid, (annuity > 0.0) & np.isfinite(annuity)
        )
        assert report.valid[[0, 1, 3]].all()
        assert report.valid[2].tolist() == [True, True, False, False, False]
        # Every valid cell is the clean call's, bit for bit.
        for got, want in zip((spreads, *legs), (clean_spreads, *clean_legs)):
            np.testing.assert_array_equal(
                got[report.valid], want[report.valid]
            )
        assert str(report) == (
            "non-positive risky annuity for scenario 12, option index 2: nan"
        )
        assert dict(report.cell_messages()) == {
            (2, k): f"non-positive risky annuity for scenario 12, "
            f"option index {k}: nan"
            for k in (2, 3, 4)
        }


class TestRowIdsLength:
    """``row_ids`` names every state or none: a list of the wrong length
    is refused up front, before an error path reads past its end."""

    @pytest.mark.parametrize("fault", [None, "nan", "shift"])
    def test_wrong_length_rejected(
        self, yield_curve, hazard_curve, mixed_options, fault
    ):
        from repro.core.vector_pricing import price_packed_many

        packed = PackedPortfolio.pack(mixed_options)
        hv = np.tile(np.asarray(hazard_curve.values), (3, 1))
        shifts = np.zeros(3)
        if fault == "nan":
            hv[2, 5] = np.nan  # reaches every contract's annuity
        elif fault == "shift":
            shifts[2] = np.inf
        with pytest.raises(
            ValidationError, match=r"row_ids must name 3 scenario\(s\), got 1"
        ):
            price_packed_many(
                packed,
                yield_curve.times,
                np.tile(np.asarray(yield_curve.values), (3, 1)),
                hazard_curve.times,
                hv,
                recovery_shifts=shifts,
                row_ids=[10],
            )
