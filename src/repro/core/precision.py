"""Reduced-precision pricing study (the paper's "further work").

The paper closes with: "further exploration around reduced precision,
especially within the context of the future Xilinx Versal ACAP with AI
engines for accelerating single precision floating point and fixed-point
arithmetic, would be very interesting."  This module carries out the
single-precision half of that study in software:

* :func:`float32_spreads` — the full pricing pipeline executed in IEEE
  binary32, casting after every elementary step exactly as a
  single-precision datapath would;
* :class:`PrecisionReport` — spread-error statistics against the binary64
  reference over a portfolio;
* the speedup side is modelled by the ``precision`` knob of
  :class:`~repro.engines.stages.StageModels` (shorter adder/exp latencies,
  and doubled effective URAM port bandwidth because a 64-bit port delivers
  two binary32 table entries per cycle) and benchmarked in
  ``benchmarks/test_future_reduced_precision.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.pricing import BASIS_POINTS
from repro.core.schedule import build_schedule
from repro.core.types import CDSOption
from repro.core.vector_pricing import VectorCDSPricer
from repro.errors import ValidationError

__all__ = ["float32_spreads", "PrecisionReport", "run_precision_study"]


def float32_spreads(
    options: list[CDSOption],
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
) -> np.ndarray:
    """Par spreads computed end-to-end in single precision.

    Every table value, intermediate product and accumulation is rounded to
    binary32, mirroring a datapath built from single-precision operators.
    Returns spreads in basis points (as float64 holding binary32 values).
    """
    if not options:
        raise ValidationError("portfolio must be non-empty")
    f32 = np.float32
    yc_t = yield_curve.times.astype(f32)
    yc_v = yield_curve.values.astype(f32)
    hc_t = hazard_curve.times.astype(f32)
    hc_v = hazard_curve.values.astype(f32)
    hz_widths = np.diff(np.concatenate(([f32(0.0)], hc_t))).astype(f32)
    hz_cum = np.cumsum((hz_widths * hc_v).astype(f32), dtype=f32)

    out = np.empty(len(options), dtype=np.float64)
    for idx, option in enumerate(options):
        sched = build_schedule(option)
        times = sched.times.astype(f32)
        accruals = sched.accruals.astype(f32)

        # Survival via the binary32 cumulative hazard.
        seg = np.minimum(
            np.searchsorted(hc_t, times, side="left"), len(hc_t) - 1
        )
        prev_t = np.where(seg > 0, hc_t[np.maximum(seg - 1, 0)], f32(0.0)).astype(f32)
        prev_c = np.where(seg > 0, hz_cum[np.maximum(seg - 1, 0)], f32(0.0)).astype(f32)
        lam = (prev_c + hc_v[seg] * (times - prev_t)).astype(f32)
        survival = np.exp(-lam, dtype=f32)

        # Discount via binary32 linear interpolation.
        rates = np.interp(times, yc_t, yc_v).astype(f32)
        discount = np.exp((-(rates * times)).astype(f32), dtype=f32)

        s_prev = np.concatenate(([f32(1.0)], survival[:-1])).astype(f32)
        d_s = (s_prev - survival).astype(f32)

        premium = f32(0.0)
        protection = f32(0.0)
        accrual = f32(0.0)
        half = f32(0.5)
        for i in range(len(times)):
            premium = f32(premium + f32(f32(discount[i] * survival[i]) * accruals[i]))
            protection = f32(protection + f32(discount[i] * d_s[i]))
            accrual = f32(
                accrual + f32(f32(f32(discount[i] * d_s[i]) * accruals[i]) * half)
            )
        protection = f32(protection * f32(option.loss_given_default))
        annuity = f32(premium + accrual)
        if not annuity > 0.0:
            raise ValidationError(
                f"non-positive annuity in float32 for option {idx}"
            )
        out[idx] = float(f32(f32(BASIS_POINTS) * protection / annuity))
    return out


@dataclass(frozen=True)
class PrecisionReport:
    """Error statistics of binary32 pricing against the binary64 reference.

    Attributes
    ----------
    n_options:
        Portfolio size.
    max_abs_error_bps / mean_abs_error_bps:
        Spread errors in basis points.
    max_rel_error:
        Largest relative spread error.
    reference_spread_bps:
        Mean reference spread (scale context for the errors).
    """

    n_options: int
    max_abs_error_bps: float
    mean_abs_error_bps: float
    max_rel_error: float
    reference_spread_bps: float

    def acceptable_for_quoting(self, tolerance_bps: float = 0.01) -> bool:
        """Whether the worst error stays under ``tolerance_bps``.

        CDS spreads are quoted to 1/100 bp at the very finest; errors below
        that are invisible to the market.
        """
        return self.max_abs_error_bps <= tolerance_bps

    def render(self) -> str:
        """Human-readable summary."""
        return (
            f"binary32 vs binary64 over {self.n_options} options: "
            f"max |err| {self.max_abs_error_bps:.3e} bps, "
            f"mean |err| {self.mean_abs_error_bps:.3e} bps, "
            f"max rel {self.max_rel_error:.3e} "
            f"(mean spread {self.reference_spread_bps:.1f} bps)"
        )


def run_precision_study(
    options: list[CDSOption],
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
) -> PrecisionReport:
    """Compare binary32 against binary64 pricing over a portfolio."""
    reference = VectorCDSPricer(yield_curve, hazard_curve).spreads(options)
    reduced = float32_spreads(options, yield_curve, hazard_curve)
    abs_err = np.abs(reduced - reference)
    rel_err = abs_err / np.abs(reference)
    return PrecisionReport(
        n_options=len(options),
        max_abs_error_bps=float(np.max(abs_err)),
        mean_abs_error_bps=float(np.mean(abs_err)),
        max_rel_error=float(np.max(rel_err)),
        reference_spread_bps=float(np.mean(reference)),
    )
