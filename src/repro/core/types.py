"""Value types shared across the pricing library and the FPGA engines.

The types mirror the data the paper's engine consumes:

* two constant term structures (interest rates and hazard rates), each a list
  of ``(time, value)`` pairs — :class:`RatePoint`;
* a vector of options, each ``(maturity, payment frequency, recovery rate)``
  — :class:`CDSOption`;
* one spread result per option — :class:`CDSResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.validation import check_count, check_positive_finite, check_range
from repro.errors import ValidationError

__all__ = ["RatePoint", "CDSOption", "LegBreakdown", "CDSResult"]


@dataclass(frozen=True, slots=True)
class RatePoint:
    """One entry of a rate term structure.

    Parameters
    ----------
    time:
        Point in time as a fraction of a year (must be positive; entries in a
        curve must be strictly increasing).
    value:
        The interest or hazard value applying at (or up to) ``time``.
    """

    time: float
    value: float

    def __post_init__(self) -> None:
        check_positive_finite(self.time, "RatePoint.time")
        if not math.isfinite(self.value):
            raise ValidationError(f"RatePoint must be finite, got {self!r}")


@dataclass(frozen=True, slots=True)
class CDSOption:
    """A single CDS contract to be priced.

    The three fields are exactly the three per-option inputs of the paper's
    engine (Section II.A).

    Parameters
    ----------
    maturity:
        Time to maturity in years (the end of the CDS protection).
    frequency:
        Number of premium payments per year (e.g. 4 for quarterly).
    recovery_rate:
        Fraction of the notional recovered on default, in ``[0, 1)``.
        The protection payout on default is ``1 - recovery_rate``.
    """

    maturity: float
    frequency: int
    recovery_rate: float

    def __post_init__(self) -> None:
        check_positive_finite(self.maturity, "maturity")
        check_count(self.frequency, "frequency")
        check_range(self.recovery_rate, "recovery_rate", "[0, 1)")

    @property
    def n_payments(self) -> int:
        """Number of premium payment dates up to and including maturity."""
        return int(math.ceil(self.maturity * self.frequency - 1e-12))

    @property
    def loss_given_default(self) -> float:
        """Fraction of notional lost on default: ``1 - recovery_rate``."""
        return 1.0 - self.recovery_rate


@dataclass(frozen=True, slots=True)
class LegBreakdown:
    """Present values of the individual CDS legs (per unit notional).

    These are the four per-option terms the paper's flowchart computes before
    combining them into the spread: the premium (payment) leg annuity, the
    protection (payoff) leg, and the accrued-premium-on-default term.
    """

    premium_leg: float
    protection_leg: float
    accrual_leg: float
    survival_at_maturity: float

    @property
    def risky_annuity(self) -> float:
        """Denominator of the par-spread formula: premium + accrual PV."""
        return self.premium_leg + self.accrual_leg


@dataclass(frozen=True, slots=True)
class CDSResult:
    """Spread result for one option.

    Attributes
    ----------
    spread_bps:
        The par spread in basis points — the annual premium (per unit
        notional, times 10 000) that makes the contract worth zero at
        inception.  Dividing by 100 gives the percentage quoted in the paper.
    legs:
        Optional per-leg PV breakdown (populated by the reference pricer;
        engines may omit it).
    """

    spread_bps: float
    legs: LegBreakdown | None = field(default=None, compare=False)

    @property
    def spread_pct(self) -> float:
        """Spread as a percentage of the loan (paper: bps / 100)."""
        return self.spread_bps / 100.0
