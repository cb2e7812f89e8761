"""Risk sensitivities by bump-and-reprice.

The engines of this package compute par spreads; a risk desk consumes
*sensitivities* of those values.  This module implements the standard
bump-and-reprice greeks for CDS books (the batch workload the paper's
introduction motivates: "batch processing of financial data on HPC
machines, for instance overnight"):

* **CS01** — PV change of a protection-buyer position for a one-basis-point
  parallel bump of the hazard curve's implied spread level (approximated by
  bumping hazard intensities by the equivalent amount);
* **IR01** — PV change for a one-basis-point parallel bump of the zero
  curve;
* **JTD** — jump-to-default: immediate loss if the reference entity
  defaults now;
* **Rec01** — PV change per 1% recovery-rate bump.

PVs are for a unit-notional contract paying a fixed ``contract_spread``:
``PV = protection_leg - contract_spread * risky_annuity`` (protection
buyer's view).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.core.curves import Curve, HazardCurve, YieldCurve
from repro.core.pricing import BASIS_POINTS
from repro.core.types import CDSOption
from repro.core.validation import check_positive_finite
from repro.core.vector_pricing import VectorCDSPricer
from repro.errors import ValidationError

__all__ = [
    "CDSGreeks",
    "RiskEngine",
    "position_pv",
    "parallel_bump",
    "bucket_bump",
]

#: One basis point as a decimal.
ONE_BP = 1e-4

CurveT = TypeVar("CurveT", bound=Curve)


def parallel_bump(curve: CurveT, bump: float, *, floor: float | None = None) -> CurveT:
    """A copy of ``curve`` with every knot value shifted by ``bump``.

    Parameters
    ----------
    curve:
        Any :class:`~repro.core.curves.Curve` subtype; the result has the
        same type and knot times.
    bump:
        Additive shift applied to every knot value (decimal, not bps).
    floor:
        Optional lower clamp on the bumped values — hazard intensities,
        for instance, must stay non-negative under downward shocks.
    """
    values = np.asarray(curve.values) + bump
    if floor is not None:
        values = np.maximum(values, floor)
    return type(curve)(curve.times, values)


def bucket_bump(
    curve: CurveT,
    lo: float,
    hi: float,
    bump: float,
    *,
    floor: float | None = None,
) -> CurveT:
    """A copy of ``curve`` bumped only on knots with time in ``(lo, hi]``.

    This is the tenor-bucket bump behind CS01/IR01 ladders: summing the
    PV impact over a set of buckets that tile the curve recovers the
    parallel bump's impact (to first order).

    Parameters
    ----------
    curve:
        Any :class:`~repro.core.curves.Curve` subtype.
    lo / hi:
        Half-open bucket ``(lo, hi]`` in knot-time years; ``lo < hi``.
    bump:
        Additive shift applied inside the bucket (decimal).
    floor:
        Optional lower clamp on the bumped values.
    """
    if not lo < hi:
        raise ValidationError(f"bucket needs lo < hi, got ({lo}, {hi}]")
    times = np.asarray(curve.times)
    values = np.asarray(curve.values).copy()
    inside = (times > lo) & (times <= hi)
    values[inside] += bump
    if floor is not None:
        values = np.maximum(values, floor)
    return type(curve)(curve.times, values)


@dataclass(frozen=True)
class CDSGreeks:
    """Sensitivities for one position (unit notional, protection buyer).

    Attributes
    ----------
    pv:
        Mark-to-market value.
    cs01:
        PV change per +1 bp hazard-level bump (positive for a protection
        buyer: more credit risk makes owned protection dearer).
    ir01:
        PV change per +1 bp parallel zero-curve bump.
    jtd:
        Jump-to-default gain: ``LGD - pv`` (payout minus value given up).
    rec01:
        PV change per +1 percentage-point recovery bump (negative for a
        buyer: higher recovery cheapens protection).
    """

    pv: float
    cs01: float
    ir01: float
    jtd: float
    rec01: float


def position_pv(
    options: list[CDSOption],
    contract_spreads_bps: np.ndarray,
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
) -> np.ndarray:
    """Mark-to-market of protection-buyer positions at fixed contract spreads.

    ``PV_i = protection_i - s_i * annuity_i`` with ``s_i`` the contracted
    running spread (decimal form of ``contract_spreads_bps``).
    """
    spreads = np.asarray(contract_spreads_bps, dtype=np.float64)
    if spreads.shape != (len(options),):
        raise ValidationError(
            f"need one contract spread per option: {spreads.shape} vs {len(options)}"
        )
    pricer = VectorCDSPricer(yield_curve=yield_curve, hazard_curve=hazard_curve)
    _, legs = pricer.price_portfolio_detailed(options)
    protection = np.array([l.protection_leg for l in legs])
    annuity = np.array([l.risky_annuity for l in legs])
    return protection - (spreads / BASIS_POINTS) * annuity


class RiskEngine:
    """Bump-and-reprice greeks over a portfolio.

    Parameters
    ----------
    yield_curve / hazard_curve:
        Base market curves.
    hazard_bump:
        Parallel intensity bump used for CS01 (default: the intensity
        equivalent of 1 bp of spread at 40% recovery, i.e. 1bp / 0.6).
    rate_bump:
        Parallel zero-rate bump for IR01 (default 1 bp).
    """

    def __init__(
        self,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        hazard_bump: float = ONE_BP / 0.6,
        rate_bump: float = ONE_BP,
    ) -> None:
        check_positive_finite(hazard_bump, "hazard_bump")
        check_positive_finite(rate_bump, "rate_bump")
        self.yield_curve = yield_curve
        self.hazard_curve = hazard_curve
        self.hazard_bump = hazard_bump
        self.rate_bump = rate_bump

    # ------------------------------------------------------------------
    def bumped_hazard(self) -> HazardCurve:
        """Hazard curve with all intensities bumped in parallel."""
        return parallel_bump(self.hazard_curve, self.hazard_bump, floor=0.0)

    def bumped_yield(self) -> YieldCurve:
        """Zero curve with all rates bumped in parallel."""
        return parallel_bump(self.yield_curve, self.rate_bump)

    # ------------------------------------------------------------------
    def greeks(
        self,
        options: list[CDSOption],
        contract_spreads_bps: np.ndarray | None = None,
    ) -> list[CDSGreeks]:
        """Greeks for every position.

        ``contract_spreads_bps`` defaults to the current par spreads (so
        base PVs are ~0 and the greeks are pure sensitivities).
        """
        if not options:
            raise ValidationError("portfolio must be non-empty")
        base_pricer = VectorCDSPricer(self.yield_curve, self.hazard_curve)
        if contract_spreads_bps is None:
            contract_spreads_bps = base_pricer.spreads(options)
        contract_spreads_bps = np.asarray(contract_spreads_bps, dtype=np.float64)

        pv_base = position_pv(
            options, contract_spreads_bps, self.yield_curve, self.hazard_curve
        )
        pv_hz = position_pv(
            options, contract_spreads_bps, self.yield_curve, self.bumped_hazard()
        )
        pv_ir = position_pv(
            options, contract_spreads_bps, self.bumped_yield(), self.hazard_curve
        )
        # Recovery bump: rebuild options with recovery + 1%.
        bumped_opts = [
            CDSOption(
                maturity=o.maturity,
                frequency=o.frequency,
                recovery_rate=min(o.recovery_rate + 0.01, 0.999),
            )
            for o in options
        ]
        pv_rec = position_pv(
            bumped_opts, contract_spreads_bps, self.yield_curve, self.hazard_curve
        )

        out = []
        for i, o in enumerate(options):
            out.append(
                CDSGreeks(
                    pv=float(pv_base[i]),
                    cs01=float(pv_hz[i] - pv_base[i]),
                    ir01=float(pv_ir[i] - pv_base[i]),
                    jtd=float(o.loss_given_default - pv_base[i]),
                    rec01=float(pv_rec[i] - pv_base[i]),
                )
            )
        return out

    def portfolio_totals(
        self,
        options: list[CDSOption],
        contract_spreads_bps: np.ndarray | None = None,
        notionals: np.ndarray | None = None,
    ) -> CDSGreeks:
        """Notional-weighted aggregate greeks for the whole book."""
        greeks = self.greeks(options, contract_spreads_bps)
        w = (
            np.ones(len(options))
            if notionals is None
            else np.asarray(notionals, dtype=np.float64)
        )
        if w.shape != (len(options),):
            raise ValidationError("need one notional per option")
        return CDSGreeks(
            pv=float(sum(w[i] * g.pv for i, g in enumerate(greeks))),
            cs01=float(sum(w[i] * g.cs01 for i, g in enumerate(greeks))),
            ir01=float(sum(w[i] * g.ir01 for i, g in enumerate(greeks))),
            jtd=float(sum(w[i] * g.jtd for i, g in enumerate(greeks))),
            rec01=float(sum(w[i] * g.rec01 for i, g in enumerate(greeks))),
        )
