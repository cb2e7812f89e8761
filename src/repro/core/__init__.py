"""Core CDS pricing library.

This subpackage implements the quantitative-finance substrate of the paper:
the Credit Default Swap pricing model used by the Xilinx Vitis CDS engine
(Hull-style reduced-form pricing with a piecewise term structure of interest
rates and hazard rates).

Layout
------
``types``
    Plain dataclasses: :class:`~repro.core.types.CDSOption`,
    :class:`~repro.core.types.CDSResult` and friends.
``curves``
    Term-structure curves: linear-interpolated yield curve and
    piecewise-constant hazard curve with analytic integration.
``schedule``
    Premium payment schedules (the "distinct time points" of paper Fig. 1).
``pricing``
    Scalar reference pricer — the numerical ground truth every engine
    variant must agree with.
``vector_pricing``
    NumPy-vectorised batch pricer used by the CPU baseline engine.
``bootstrap``
    Hazard-curve bootstrap from quoted par spreads (inverse problem;
    extension beyond the paper).
``validation``
    Input validation helpers shared by the above.
"""

from repro.core.types import (
    CDSOption,
    CDSResult,
    LegBreakdown,
    RatePoint,
)
from repro.core.curves import Curve, HazardCurve, YieldCurve
from repro.core.schedule import PaymentSchedule, build_schedule
from repro.core.pricing import CDSPricer, price_cds
from repro.core.vector_pricing import VectorCDSPricer

__all__ = [
    "CDSOption",
    "CDSResult",
    "LegBreakdown",
    "RatePoint",
    "Curve",
    "YieldCurve",
    "HazardCurve",
    "PaymentSchedule",
    "build_schedule",
    "CDSPricer",
    "price_cds",
    "VectorCDSPricer",
]
