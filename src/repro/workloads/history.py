"""Synthetic market-data history for historical-replay risk scenarios.

A historical-simulation VaR run replays observed day-over-day curve moves
on top of today's market state.  No real market data ships with this
reproduction, so this module generates a *deterministic synthetic history*:
a mean-reverting random walk of yield and hazard curves around the paper
scenario's base shapes, with correlated level moves and smaller independent
knot noise — enough structure that replay scenarios exercise the same code
paths (level shifts, steepening, credit/rates co-moves) as a real history
would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.validation import check_count, check_range
from repro.errors import ValidationError
from repro.workloads.generator import make_hazard_curve, make_yield_curve

__all__ = ["CurveHistory", "make_curve_history"]


@dataclass(frozen=True)
class CurveHistory:
    """A dated sequence of joint (yield, hazard) market states.

    Attributes
    ----------
    yields / hazards:
        Equal-length curve sequences; entry ``d`` is day ``d``'s close.
    """

    yields: tuple[YieldCurve, ...]
    hazards: tuple[HazardCurve, ...]

    def __post_init__(self) -> None:
        if len(self.yields) != len(self.hazards):
            raise ValidationError(
                "history needs one hazard curve per yield curve, got "
                f"{len(self.yields)} and {len(self.hazards)}"
            )
        if len(self.yields) < 2:
            raise ValidationError(
                "a history needs at least 2 days to have any day-over-day move"
            )

    @property
    def n_days(self) -> int:
        """Days of history."""
        return len(self.yields)

    @property
    def n_moves(self) -> int:
        """Day-over-day moves available for replay (``n_days - 1``)."""
        return len(self.yields) - 1


def make_curve_history(
    n_days: int = 64,
    *,
    n_points: int = 64,
    span_years: float = 10.0,
    rate_daily_vol: float = 4e-4,
    hazard_daily_vol: float = 6e-4,
    rate_hazard_correlation: float = -0.3,
    mean_reversion: float = 0.05,
    knot_noise: float = 5e-5,
    seed: int = 17,
) -> CurveHistory:
    """Generate a deterministic synthetic curve history.

    Day-over-day dynamics: each curve's *level* follows a mean-reverting
    Gaussian walk (rates and hazards correlated by
    ``rate_hazard_correlation`` — credit spreads tend to widen when rates
    rally), plus independent per-knot noise an order of magnitude smaller.

    Parameters
    ----------
    n_days:
        Days of history to generate (>= 2).
    n_points / span_years:
        Knot grid of every curve in the history.
    rate_daily_vol / hazard_daily_vol:
        Daily level-move standard deviations (decimal).
    rate_hazard_correlation:
        Correlation between the two level moves, in ``(-1, 1)``.
    mean_reversion:
        Pull-back fraction towards the base level per day.
    knot_noise:
        Standard deviation of the idiosyncratic per-knot noise.
    seed:
        Deterministic generator seed.
    """
    check_count(n_days, "n_days", 2)
    check_range(rate_hazard_correlation, "rate_hazard_correlation", "(-1, 1)")
    check_range(mean_reversion, "mean_reversion")
    gen = np.random.default_rng(seed)
    base_yc = make_yield_curve(n_points, span_years=span_years, seed=gen)
    base_hc = make_hazard_curve(n_points, span_years=span_years, seed=gen)

    # 2x2 Cholesky factor for the correlated (rate, hazard) level moves.
    rho = rate_hazard_correlation
    chol = np.array([[1.0, 0.0], [rho, np.sqrt(1.0 - rho * rho)]])

    rate_values = np.asarray(base_yc.values).copy()
    hazard_values = np.asarray(base_hc.values).copy()
    rate_level = 0.0
    hazard_level = 0.0
    yields = [base_yc]
    hazards = [base_hc]
    for _ in range(n_days - 1):
        dr, dh = chol @ gen.standard_normal(2)
        rate_level += dr * rate_daily_vol - mean_reversion * rate_level
        hazard_level += dh * hazard_daily_vol - mean_reversion * hazard_level
        rates = np.clip(
            rate_values + rate_level + gen.normal(0.0, knot_noise, n_points),
            1e-5,
            None,
        )
        hzs = np.clip(
            hazard_values + hazard_level + gen.normal(0.0, knot_noise, n_points),
            1e-6,
            None,
        )
        yields.append(YieldCurve(base_yc.times, rates))
        hazards.append(HazardCurve(base_hc.times, hzs))
    return CurveHistory(yields=tuple(yields), hazards=tuple(hazards))
