"""Fixed-point pricing study (the second half of the paper's future work).

The paper's closing direction mentions "fixed-point arithmetic" alongside
single precision.  A fixed-point FPGA datapath differs from a floating-point
one in two ways this module models faithfully:

* every intermediate value is **quantised** to a two's-complement
  ``Qm.n`` format (:class:`FixedFormat`) — rounding to nearest, saturating
  at the range limits, exactly as a DSP48-based datapath behaves;
* transcendental functions are not available: ``exp`` becomes a **lookup
  table with linear interpolation** (:class:`TableExp`), the standard
  fixed-point idiom, whose table size is a new accuracy/BRAM trade-off.

:func:`fixedpoint_spreads` runs the full pricing pipeline under a chosen
format and table, and :func:`wordlength_sweep` maps spread error against
fractional word length — the design curve an implementer of the paper's
future work would need first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.pricing import BASIS_POINTS
from repro.core.schedule import build_schedule
from repro.core.types import CDSOption
from repro.core.validation import check_count, check_index, check_positive_finite
from repro.core.vector_pricing import VectorCDSPricer
from repro.errors import ValidationError

__all__ = [
    "FixedFormat",
    "TableExp",
    "fixedpoint_spreads",
    "FixedPointReport",
    "run_fixedpoint_study",
    "wordlength_sweep",
]


@dataclass(frozen=True)
class FixedFormat:
    """Signed two's-complement ``Qm.n`` fixed-point format.

    Parameters
    ----------
    int_bits:
        Integer bits ``m`` (excluding the sign bit).
    frac_bits:
        Fractional bits ``n``; the quantum is ``2**-n``.
    """

    int_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        check_index(self.int_bits, "int_bits")
        check_count(self.frac_bits, "frac_bits")

    @property
    def total_bits(self) -> int:
        """Word length including the sign bit."""
        return 1 + self.int_bits + self.frac_bits

    @property
    def quantum(self) -> float:
        """Smallest representable increment."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_value(self) -> float:
        """Largest representable value."""
        return 2.0**self.int_bits - self.quantum

    @property
    def min_value(self) -> float:
        """Most negative representable value."""
        return -(2.0**self.int_bits)

    def quantise(self, x: float | np.ndarray) -> float | np.ndarray:
        """Round to nearest representable, saturating at the range limits."""
        q = np.round(np.asarray(x, dtype=np.float64) / self.quantum) * self.quantum
        q = np.clip(q, self.min_value, self.max_value)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(q)
        return q

    def describe(self) -> str:
        """Render as ``Qm.n (k bits)``."""
        return f"Q{self.int_bits}.{self.frac_bits} ({self.total_bits} bits)"


class TableExp:
    """``exp(-x)`` for ``x >= 0`` via LUT + linear interpolation.

    Parameters
    ----------
    table_bits:
        log2 of the table size.
    x_max:
        Domain upper bound; inputs beyond it clamp to ``exp(-x_max)``
        (survival/discount factors for extreme hazard are ~0 anyway).
    fmt:
        Output format applied to table entries and interpolated results.
    """

    def __init__(
        self, table_bits: int = 10, x_max: float = 8.0, fmt: FixedFormat | None = None
    ) -> None:
        check_count(table_bits, "table_bits", 2)
        check_positive_finite(x_max, "x_max")
        self.table_bits = table_bits
        self.x_max = x_max
        self.fmt = fmt if fmt is not None else FixedFormat(4, 27)
        n = 1 << table_bits
        self._xs = np.linspace(0.0, x_max, n)
        self._ys = self.fmt.quantise(np.exp(-self._xs))

    @property
    def table_bytes(self) -> int:
        """Storage footprint of the table."""
        word_bytes = -(-self.fmt.total_bits // 8)
        return (1 << self.table_bits) * word_bytes

    def __call__(self, x: float | np.ndarray) -> float | np.ndarray:
        """Evaluate ``exp(-x)`` with clamping and output quantisation."""
        xx = np.clip(np.asarray(x, dtype=np.float64), 0.0, self.x_max)
        y = self.fmt.quantise(np.interp(xx, self._xs, self._ys))
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(y)
        return y


def fixedpoint_spreads(
    options: list[CDSOption],
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    *,
    fmt: FixedFormat | None = None,
    exp_table: TableExp | None = None,
) -> np.ndarray:
    """Par spreads with every intermediate quantised to ``fmt``.

    The default ``Q4.27`` (32-bit word) gives the leg accumulators the
    integer headroom they need: the premium leg of a long-dated contract is
    the risky annuity (~years of coupons), which overflows a ``Q1.n``
    format — the classic fixed-point design pitfall this study surfaces.
    """
    if not options:
        raise ValidationError("portfolio must be non-empty")
    f = fmt if fmt is not None else FixedFormat(4, 27)
    ex = exp_table if exp_table is not None else TableExp(fmt=f)
    q = f.quantise

    out = np.empty(len(options), dtype=np.float64)
    for idx, option in enumerate(options):
        sched = build_schedule(option)
        premium = 0.0
        protection = 0.0
        accrual = 0.0
        s_prev = 1.0
        for t, dt in zip(sched.times, sched.accruals):
            lam = q(hazard_curve.integrated(float(t)))
            s = ex(lam)
            r = q(yield_curve.interpolate(float(t)))
            d = ex(q(r * float(t)))
            ds = q(s_prev - s)
            dtq = q(float(dt))
            premium = q(premium + q(q(d * s) * dtq))
            protection = q(protection + q(d * ds))
            accrual = q(accrual + q(q(q(d * ds) * dtq) * 0.5))
            s_prev = s
        protection = q(protection * q(option.loss_given_default))
        annuity = q(premium + accrual)
        if not annuity > 0.0:
            raise ValidationError(
                f"non-positive annuity under {f.describe()} for option {idx}"
            )
        out[idx] = BASIS_POINTS * protection / annuity
    return out


@dataclass(frozen=True)
class FixedPointReport:
    """Error statistics of fixed-point pricing vs the binary64 reference."""

    fmt: FixedFormat
    exp_table_bits: int
    n_options: int
    max_abs_error_bps: float
    mean_abs_error_bps: float

    def acceptable_for_quoting(self, tolerance_bps: float = 0.01) -> bool:
        """Whether the worst spread error stays under ``tolerance_bps``."""
        return self.max_abs_error_bps <= tolerance_bps

    def render(self) -> str:
        """Human-readable summary."""
        return (
            f"{self.fmt.describe()}, exp table 2^{self.exp_table_bits}: "
            f"max |err| {self.max_abs_error_bps:.3e} bps, "
            f"mean {self.mean_abs_error_bps:.3e} bps "
            f"over {self.n_options} options"
        )


def run_fixedpoint_study(
    options: list[CDSOption],
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    *,
    fmt: FixedFormat | None = None,
    exp_table_bits: int = 12,
) -> FixedPointReport:
    """Compare one fixed-point configuration against binary64."""
    f = fmt if fmt is not None else FixedFormat(4, 27)
    table = TableExp(table_bits=exp_table_bits, fmt=f)
    reference = VectorCDSPricer(yield_curve, hazard_curve).spreads(options)
    fixed = fixedpoint_spreads(
        options, yield_curve, hazard_curve, fmt=f, exp_table=table
    )
    abs_err = np.abs(fixed - reference)
    return FixedPointReport(
        fmt=f,
        exp_table_bits=exp_table_bits,
        n_options=len(options),
        max_abs_error_bps=float(np.max(abs_err)),
        mean_abs_error_bps=float(np.mean(abs_err)),
    )


def wordlength_sweep(
    options: list[CDSOption],
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    frac_bits: list[int],
    *,
    exp_table_bits: int = 12,
) -> list[FixedPointReport]:
    """Spread error as a function of fractional word length."""
    if not frac_bits:
        raise ValidationError("frac_bits must be non-empty")
    return [
        run_fixedpoint_study(
            options,
            yield_curve,
            hazard_curve,
            fmt=FixedFormat(4, n),
            exp_table_bits=exp_table_bits,
        )
        for n in frac_bits
    ]
