"""Term-structure curves.

Two curve families back the CDS model (paper Section II.A):

* the **interest-rate curve** ("term structure"): a list of percentages of
  interest payable in a given time frame, interpolated *linearly* between
  knots — :class:`YieldCurve`.  The engine's "interpolation sub-steps"
  (paper Fig. 2) evaluate this curve.
* the **hazard-rate curve**: the likelihood intensity that the loan defaults
  by a point in time, integrated by *accumulating* the constant data up to
  the evaluation time — :class:`HazardCurve`.  The engine's hazard
  calculation stage performs this accumulation, and it is the accumulation's
  double-precision add dependency that produced the II=7 bottleneck the paper
  fixes with Listing 1.

Both curves clamp (flat-extrapolate) outside the knot range, matching the
behaviour of table-driven FPGA implementations that saturate their index.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.types import RatePoint
from repro.core.validation import (
    as_float_array,
    check_finite,
    check_positive,
    check_strictly_increasing,
)
from repro.errors import CurveError

__all__ = [
    "Curve",
    "YieldCurve",
    "HazardCurve",
    "InterpPlan",
    "DiscountPlan",
    "SurvivalPlan",
    "interp_many",
    "discount_factors_many",
    "survival_many",
]


class Curve:
    """A piecewise term structure over strictly-increasing times.

    Parameters
    ----------
    times:
        Strictly increasing, positive knot times (years).
    values:
        Knot values, same length as ``times``.

    Notes
    -----
    The class is immutable after construction; the knot arrays are copied and
    marked read-only so curves can safely be shared between engine replicas
    (the paper duplicates the constant rate data into each engine's URAM —
    sharing an immutable object is the software analogue).
    """

    __slots__ = ("_times", "_values")

    def __init__(self, times: Sequence[float], values: Sequence[float]) -> None:
        t = as_float_array(times, "times")
        v = as_float_array(values, "values")
        if t.shape != v.shape:
            raise CurveError(
                f"times and values must have equal length, got {t.size} and {v.size}"
            )
        check_finite(t, "times")
        check_finite(v, "values")
        check_positive(t, "times", strict=True)
        check_strictly_increasing(t, "times")
        t = t.copy()
        v = v.copy()
        t.flags.writeable = False
        v.flags.writeable = False
        self._times = t
        self._values = v

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[RatePoint]) -> "Curve":
        """Build a curve from an iterable of :class:`RatePoint`."""
        pts = list(points)
        if not pts:
            raise CurveError("cannot build a curve from zero points")
        return cls([p.time for p in pts], [p.value for p in pts])

    def to_points(self) -> list[RatePoint]:
        """Return the knots as a list of :class:`RatePoint`."""
        return [RatePoint(float(t), float(v)) for t, v in zip(self._times, self._values)]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def times(self) -> np.ndarray:
        """Read-only knot times (years)."""
        return self._times

    @property
    def values(self) -> np.ndarray:
        """Read-only knot values."""
        return self._values

    def __len__(self) -> int:
        return int(self._times.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n={len(self)}, "
            f"t=[{self._times[0]:.4g}..{self._times[-1]:.4g}])"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        return (
            type(self) is type(other)
            and np.array_equal(self._times, other._times)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._times.tobytes(), self._values.tobytes()))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def interpolate(self, t: float | np.ndarray) -> float | np.ndarray:
        """Linear interpolation of the knot values at time(s) ``t``.

        Values are clamped to the first/last knot value outside the knot
        range (flat extrapolation), which is what a saturating table lookup
        on the FPGA produces.
        """
        result = np.interp(t, self._times, self._values)
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(result)
        return result

    def locate(self, t: float) -> int:
        """Index of the first knot with time >= ``t`` (clamped to the last).

        This mirrors the linear search the FPGA interpolation unit performs
        over the rate table; the *timing* of that search is modelled in
        :mod:`repro.hls.interpolation`, while this method provides the
        functional answer.
        """
        idx = int(np.searchsorted(self._times, t, side="left"))
        return min(idx, len(self) - 1)


class YieldCurve(Curve):
    """Interest-rate term structure with continuously-compounded discounting.

    ``discount(t) = exp(-r(t) * t)`` where ``r(t)`` is the linearly
    interpolated zero rate.
    """

    __slots__ = ()

    def zero_rate(self, t: float | np.ndarray) -> float | np.ndarray:
        """Linearly interpolated zero rate at ``t`` (flat beyond the ends)."""
        return self.interpolate(t)

    def discount(self, t: float | np.ndarray) -> float | np.ndarray:
        """Discount factor ``exp(-r(t) * t)``; ``t`` may be an array.

        Negative ``t`` is clamped to zero (discount factor 1).
        """
        tt = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
        df = np.exp(-np.asarray(self.interpolate(tt)) * tt)
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(df)
        return df

    def forward_rate(self, t0: float, t1: float) -> float:
        """Continuously-compounded forward rate between ``t0`` and ``t1``."""
        if t1 <= t0:
            raise CurveError(f"forward_rate requires t1 > t0, got [{t0}, {t1}]")
        d0 = self.discount(t0)
        d1 = self.discount(t1)
        return float(np.log(d0 / d1) / (t1 - t0))


class HazardCurve(Curve):
    """Hazard-rate term structure with piecewise-constant intensity.

    Knot ``k`` of the curve states that the default intensity equals
    ``values[k]`` on the interval ``(times[k-1], times[k]]`` (with
    ``times[-1]`` taken as 0 for the first segment); beyond the final knot
    the last intensity applies.  The cumulative hazard

    ``Lambda(t) = integral_0^t lambda(u) du``

    is the quantity the engine's hazard stage computes by accumulating the
    constant data "up until this time" (paper Section II.A); the survival
    probability is ``S(t) = exp(-Lambda(t))`` and the default probability is
    ``1 - S(t)``.
    """

    __slots__ = ("_cum",)

    def __init__(self, times: Sequence[float], values: Sequence[float]) -> None:
        super().__init__(times, values)
        check_positive(self._values, "hazard values", strict=False)
        # Cumulative integral at each knot: cum[k] = Lambda(times[k]).
        widths = np.diff(np.concatenate(([0.0], self._times)))
        cum = np.cumsum(widths * self._values)
        cum.flags.writeable = False
        self._cum = cum

    def intensity(self, t: float) -> float:
        """Piecewise-constant hazard intensity applying at time ``t``."""
        if t <= 0.0:
            return float(self._values[0])
        idx = int(np.searchsorted(self._times, t, side="left"))
        idx = min(idx, len(self) - 1)
        return float(self._values[idx])

    def integrated(self, t: float | np.ndarray) -> float | np.ndarray:
        """Cumulative hazard ``Lambda(t)`` (vectorised over ``t``).

        For ``t`` inside segment ``k`` this is ``cum[k-1] + lambda_k *
        (t - times[k-1])``; beyond the last knot the final intensity
        extrapolates flat.
        """
        tt = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
        idx = np.minimum(
            np.searchsorted(self._times, tt, side="left"), len(self) - 1
        )
        prev_t = np.where(idx > 0, self._times[np.maximum(idx - 1, 0)], 0.0)
        prev_cum = np.where(idx > 0, self._cum[np.maximum(idx - 1, 0)], 0.0)
        lam = self._values[idx]
        # Clamp within the segment; beyond the last knot (t > times[-1]) the
        # formula extends naturally since idx == len-1 and t - prev_t grows.
        result = prev_cum + lam * (tt - prev_t)
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(result)
        return result

    def survival(self, t: float | np.ndarray) -> float | np.ndarray:
        """Survival probability ``S(t) = exp(-Lambda(t))``."""
        s = np.exp(-np.asarray(self.integrated(t)))
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(s)
        return s

    def default_probability(self, t: float | np.ndarray) -> float | np.ndarray:
        """Probability that default has occurred by time ``t``."""
        p = 1.0 - np.asarray(self.survival(t))
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(p)
        return p

    def accumulation_length(self, t: float) -> int:
        """Number of curve entries the FPGA hazard stage accumulates for ``t``.

        The Vitis engine walks the hazard table from the start and
        accumulates every entry with time <= ``t`` (plus one partial
        segment).  This count drives the *cycle cost* of the hazard stage in
        the simulator: with the baseline II=7 accumulator the stage takes
        ``7 * accumulation_length(t)`` cycles, with the Listing-1 accumulator
        roughly ``accumulation_length(t)`` cycles.
        """
        if t <= 0.0:
            return 0
        idx = int(np.searchsorted(self._times, t, side="right"))
        # Entries strictly before t, plus the partial segment containing t
        # (unless t lies exactly on or beyond the final knot).
        return min(idx + 1, len(self))


# ----------------------------------------------------------------------
# Batched curve evaluation over a leading scenario axis
# ----------------------------------------------------------------------
# These back the scenario-tensor repricing kernel: many market states that
# share one knot grid, evaluated at one set of times in a single pass.
# Each evaluation reproduces the scalar-curve result *bit for bit* — the
# elementary operations and their order match ``np.interp`` /
# :meth:`HazardCurve.integrated` exactly — so batched repricing can be
# pinned identical to the per-scenario loop.
#
# Each evaluator is split in two.  A *plan*, built from the query times
# and the knot grid alone, holds every lookup that does not depend on the
# curve values (interval indices, offsets, out-of-range masks); its
# ``apply`` runs the arithmetic on value rows.  A caller whose times and
# grid stay fixed across calls (a packed book replaying one market tape)
# builds the plan once; the ``*_many`` functions build and apply in one go.


def _nonempty(mask: np.ndarray) -> np.ndarray | None:
    """``mask`` if any entry is set, else ``None`` (nothing to overwrite)."""
    return mask if mask.any() else None


class InterpPlan:
    """The time-only half of :func:`interp_many`.

    Parameters
    ----------
    t:
        ``(m,)`` query times, shared by every row.
    knot_times:
        ``(k,)`` strictly increasing knot times, shared by every row.
    """

    __slots__ = ("_m", "_lo", "_hi", "_dx", "_dxp", "_below", "_above")

    def __init__(self, t: np.ndarray, knot_times: np.ndarray) -> None:
        x = np.asarray(t, dtype=np.float64)
        xp = np.asarray(knot_times, dtype=np.float64)
        self._m = x.size
        if xp.size < 2:
            # Degenerate single-knot curve: flat everywhere.
            self._lo = self._hi = self._dx = self._dxp = None
            self._below = self._above = None
            return
        # Interval index: last knot with time <= x (-1 below the first knot).
        j = np.searchsorted(xp, x, side="right") - 1
        jc = np.clip(j, 0, xp.size - 2)
        x0 = xp[jc]
        self._lo = jc
        self._hi = jc + 1
        self._dx = x - x0
        self._dxp = xp[self._hi] - x0
        self._below = _nonempty(j < 0)
        self._above = _nonempty(j >= xp.size - 1)

    def apply(self, knot_values: np.ndarray) -> np.ndarray:
        """Interpolate ``(n_rows, k)`` value rows: ``(n_rows, m)`` values."""
        fp = np.atleast_2d(np.asarray(knot_values, dtype=np.float64))
        if self._lo is None:
            return np.broadcast_to(fp[:, :1], (fp.shape[0], self._m)).copy()
        # np.interp computes fp[j] + slope * (x - xp[j]) with
        # slope = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]); replicate the exact
        # operation order so results match bit for bit.  An exact knot hit
        # lands on fp[j] because the slope term multiplies by zero.
        f0 = fp.take(self._lo, axis=1)
        slope = (fp.take(self._hi, axis=1) - f0) / self._dxp
        out = slope * self._dx + f0
        if self._below is not None:
            np.copyto(out, fp[:, :1], where=self._below)
        if self._above is not None:
            np.copyto(out, fp[:, -1:], where=self._above)
        return out


class DiscountPlan:
    """The time-only half of :func:`discount_factors_many`.

    Parameters
    ----------
    t:
        ``(m,)`` times (negative times clamp to discount factor 1).
    knot_times:
        ``(k,)`` zero-rate knot grid.
    """

    __slots__ = ("_t", "_rates")

    def __init__(self, t: np.ndarray, knot_times: np.ndarray) -> None:
        self._t = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
        self._rates = InterpPlan(self._t, knot_times)

    def apply(self, knot_values: np.ndarray) -> np.ndarray:
        """Discount factors for ``(n_rows, k)`` zero-rate rows."""
        return np.exp(-self._rates.apply(knot_values) * self._t)


class SurvivalPlan:
    """The time-only half of :func:`survival_many`.

    Parameters
    ----------
    t:
        ``(m,)`` times (negative times clamp to survival 1).
    knot_times:
        ``(k,)`` hazard knot grid.
    """

    __slots__ = ("_widths", "_idx", "_prev_idx", "_dt", "_first")

    def __init__(self, t: np.ndarray, knot_times: np.ndarray) -> None:
        tt = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
        times = np.asarray(knot_times, dtype=np.float64)
        idx = np.minimum(
            np.searchsorted(times, tt, side="left"), times.size - 1
        )
        prev_idx = np.maximum(idx - 1, 0)
        first = idx == 0  # first segment: no earlier knot to start from
        self._widths = np.diff(np.concatenate(([0.0], times)))
        self._idx = idx
        self._prev_idx = prev_idx
        self._dt = tt - np.where(first, 0.0, times[prev_idx])
        self._first = _nonempty(first)

    def apply(self, knot_values: np.ndarray) -> np.ndarray:
        """Survival probabilities for ``(n_rows, k)`` intensity rows."""
        values = np.atleast_2d(np.asarray(knot_values, dtype=np.float64))
        cum = np.cumsum(self._widths[None, :] * values, axis=1)
        prev_cum = cum.take(self._prev_idx, axis=1)
        if self._first is not None:
            np.copyto(prev_cum, 0.0, where=self._first)
        lam = values.take(self._idx, axis=1)
        return np.exp(-(prev_cum + lam * self._dt))


def interp_many(
    t: np.ndarray, knot_times: np.ndarray, knot_values: np.ndarray
) -> np.ndarray:
    """Batched ``np.interp``: one query grid, many value rows.

    Equivalent to ``np.vstack([np.interp(t, knot_times, row) for row in
    knot_values])`` — bit-identical, one vectorised pass.  Flat
    extrapolation outside the knot range, as for :meth:`Curve.interpolate`.

    Parameters
    ----------
    t:
        ``(m,)`` query times, shared by every row.
    knot_times:
        ``(k,)`` strictly increasing knot times, shared by every row.
    knot_values:
        ``(n_rows, k)`` knot values, one curve per row.

    Returns
    -------
    np.ndarray
        ``(n_rows, m)`` interpolated values.
    """
    return InterpPlan(t, knot_times).apply(knot_values)


def discount_factors_many(
    t: np.ndarray, knot_times: np.ndarray, knot_values: np.ndarray
) -> np.ndarray:
    """Batched :meth:`YieldCurve.discount` over rows of zero-rate values.

    Bit-identical to evaluating a :class:`YieldCurve` per row.

    Parameters
    ----------
    t:
        ``(m,)`` times (negative times clamp to discount factor 1).
    knot_times / knot_values:
        Shared knot grid and ``(n_rows, k)`` zero-rate rows.
    """
    return DiscountPlan(t, knot_times).apply(knot_values)


def survival_many(
    t: np.ndarray, knot_times: np.ndarray, knot_values: np.ndarray
) -> np.ndarray:
    """Batched :meth:`HazardCurve.survival` over rows of intensity values.

    Integrates each row's piecewise-constant intensity with the same
    accumulation as :class:`HazardCurve` (cumulative sums at the knots plus
    a partial segment), bit-identical to the per-curve evaluation.

    Parameters
    ----------
    t:
        ``(m,)`` times (negative times clamp to survival 1).
    knot_times / knot_values:
        Shared knot grid and ``(n_rows, k)`` hazard-intensity rows.
    """
    return SurvivalPlan(t, knot_times).apply(knot_values)
