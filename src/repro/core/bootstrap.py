"""Hazard-curve bootstrap from quoted par spreads.

An extension beyond the paper (its "further work" direction of richer model
integration): given market par spreads for a ladder of maturities, recover
the piecewise-constant hazard curve that reprices them.  This exercises the
pricing stack in the inverse direction and provides realistic hazard curves
for the workload generators.

The bootstrap proceeds maturity-by-maturity: for each quoted tenor the
segment intensity is solved with Brent's method so that the model par spread
matches the quote, holding previously bootstrapped segments fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.pricing import CDSPricer
from repro.core.types import CDSOption
from repro.core.validation import check_positive_finite
from repro.errors import CalibrationError, ValidationError

__all__ = ["CDSQuote", "bootstrap_hazard_curve"]

#: Search bracket for a segment's hazard intensity (per-year).  5000% hazard
#: is far beyond any plausible credit; it exists only to bound brentq.
_LAMBDA_LO = 1e-10
_LAMBDA_HI = 50.0


@dataclass(frozen=True)
class CDSQuote:
    """A market quote: par spread for a standard CDS of a given maturity.

    Parameters
    ----------
    maturity:
        Tenor in years.
    spread_bps:
        Quoted par spread in basis points.
    frequency:
        Premium payments per year (default quarterly, the market standard).
    recovery_rate:
        Assumed recovery (default 0.4, the conventional senior-unsecured
        assumption).
    """

    maturity: float
    spread_bps: float
    frequency: int = 4
    recovery_rate: float = 0.4

    def __post_init__(self) -> None:
        check_positive_finite(self.maturity, "maturity")
        check_positive_finite(self.spread_bps, "spread_bps")

    def as_option(self) -> CDSOption:
        """The option whose par spread this quote pins down."""
        return CDSOption(
            maturity=self.maturity,
            frequency=self.frequency,
            recovery_rate=self.recovery_rate,
        )


def bootstrap_hazard_curve(
    quotes: list[CDSQuote],
    yield_curve: YieldCurve,
    *,
    tolerance_bps: float = 1e-8,
) -> HazardCurve:
    """Bootstrap a piecewise-constant hazard curve repricing ``quotes``.

    Parameters
    ----------
    quotes:
        Quotes sorted (or sortable) by strictly increasing maturity.
    yield_curve:
        Discounting curve.
    tolerance_bps:
        Convergence tolerance on the repriced spread.

    Returns
    -------
    HazardCurve
        Curve with one knot per quote maturity.

    Raises
    ------
    CalibrationError
        If any segment cannot be solved within the bracket (e.g. spreads
        that decrease so steeply with maturity that no non-negative forward
        hazard reprices them).
    """
    if not quotes:
        raise ValidationError("bootstrap requires at least one quote")
    ordered = sorted(quotes, key=lambda q: q.maturity)
    mats = [q.maturity for q in ordered]
    if len(set(mats)) != len(mats):
        raise ValidationError(f"duplicate quote maturities: {mats}")

    knot_times: list[float] = []
    knot_values: list[float] = []

    for quote in ordered:
        target = quote.spread_bps
        option = quote.as_option()

        def spread_error(lam: float) -> float:
            candidate = HazardCurve(
                knot_times + [quote.maturity], knot_values + [lam]
            )
            pricer = CDSPricer(yield_curve=yield_curve, hazard_curve=candidate)
            return pricer.price(option).spread_bps - target

        lo, hi = spread_error(_LAMBDA_LO), spread_error(_LAMBDA_HI)
        if lo * hi > 0.0:
            raise CalibrationError(
                f"cannot bracket hazard for quote at T={quote.maturity}: "
                f"error({_LAMBDA_LO})={lo:.3g}, error({_LAMBDA_HI})={hi:.3g}"
            )
        lam_star = float(
            brentq(spread_error, _LAMBDA_LO, _LAMBDA_HI, xtol=1e-14, rtol=1e-12)
        )
        if abs(spread_error(lam_star)) > tolerance_bps:
            raise CalibrationError(
                f"bootstrap did not converge at T={quote.maturity}: "
                f"residual {spread_error(lam_star):.3g} bps"
            )
        knot_times.append(quote.maturity)
        knot_values.append(lam_star)

    return HazardCurve(knot_times, knot_values)


def implied_quotes(
    hazard_curve: HazardCurve,
    yield_curve: YieldCurve,
    maturities: list[float],
    *,
    frequency: int = 4,
    recovery_rate: float = 0.4,
) -> list[CDSQuote]:
    """Forward problem: par-spread quotes implied by a hazard curve.

    Useful for round-trip testing the bootstrap and for generating realistic
    quote ladders in the workload generator.
    """
    pricer = CDSPricer(yield_curve=yield_curve, hazard_curve=hazard_curve)
    quotes = []
    for mat in maturities:
        option = CDSOption(maturity=mat, frequency=frequency, recovery_rate=recovery_rate)
        spread = pricer.price(option).spread_bps
        quotes.append(
            CDSQuote(
                maturity=mat,
                spread_bps=spread,
                frequency=frequency,
                recovery_rate=recovery_rate,
            )
        )
    return quotes
