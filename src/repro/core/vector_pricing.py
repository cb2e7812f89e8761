"""NumPy-vectorised batch CDS pricer.

This is the software-optimised counterpart of the scalar reference pricer in
:mod:`repro.core.pricing`: it prices an entire option portfolio with array
operations and no per-option Python loop over time points.  It backs the
"bespoke version of the engine in C++ with OpenMP" CPU baseline of the paper
(Section II.B) — the vectorisation plays the role of the compiler's ``-O3``
inner-loop optimisation, and :mod:`repro.cpu.engine` adds multiprocessing for
the multi-core rows.

The implementation follows the guide idiom of replacing Python loops with
masked 2-D array computations: options are laid out along axis 0 and their
(ragged) payment schedules along axis 1, padded to the longest schedule and
masked.

Two batch depths are exposed:

* :func:`price_packed_book` — one market state, the whole packed
  portfolio.  Used by :class:`VectorCDSPricer` and by per-scenario
  revaluation loops.
* :func:`price_packed_many` — many market states at once: the scenario
  axis of a risk grid becomes a leading array dimension, the curves are
  evaluated for every scenario in one vectorised pass
  (:func:`~repro.core.curves.survival_many` /
  :func:`~repro.core.curves.discount_factors_many`), and the leg math runs
  on a single ``(n_scenarios * n_options, max_len)`` layout — the same
  einsum calls as the single-state kernel, just on a taller portfolio.
  Results are **bit-identical** to calling :func:`price_packed_book`
  once per scenario; a ``chunk_size`` knob bounds peak memory on large grids.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.curves import (
    HazardCurve,
    YieldCurve,
    discount_factors_many,
    survival_many,
)
from repro.core.pricing import BASIS_POINTS
from repro.core.schedule import build_schedule
from repro.core.types import CDSOption, LegBreakdown
from repro.errors import ValidationError

__all__ = [
    "VectorCDSPricer",
    "PackedPortfolio",
    "portfolio_arrays",
    "price_packed_book",
    "price_packed_many",
    "shifted_recovery",
    "shifted_recovery_row",
    "auto_chunk_size",
    "get_kernel_profile_hook",
    "set_kernel_profile_hook",
    "CHUNK_TARGET_BYTES",
    "RECOVERY_CAP",
]

#: Process-wide kernel profile hook (``None`` = profiling off).  When
#: set, :func:`price_packed_many` calls ``hook.on_call()`` once per entry
#: and ``hook.on_chunk(n_rows, n_cells, wall_s)`` with the measured host
#: wall-time of every internal chunk.  The unset path costs one ``is not
#: None`` check per chunk, so the kernel's numbers and its performance
#: are untouched by default.  See
#: :class:`repro.telemetry.profile.KernelProfiler` for the standard
#: consumer.
_PROFILE_HOOK = None


def get_kernel_profile_hook():
    """The currently-installed kernel profile hook (``None`` when off)."""
    return _PROFILE_HOOK


def set_kernel_profile_hook(hook) -> None:
    """Install (or, with ``None``, remove) the kernel profile hook.

    The hook needs ``on_call()`` and ``on_chunk(n_rows, n_cells,
    wall_s)`` methods; it is process-wide, so installers should save and
    restore the previous hook (the profiler context manager does).
    """
    global _PROFILE_HOOK
    _PROFILE_HOOK = hook

#: Upper clamp on scenario-shifted recovery rates.  Every path applying
#: an additive recovery shift — the batched kernel, the per-scenario
#: revaluation loop, the session's tensor decomposition — must clamp to
#: ``[0, RECOVERY_CAP]`` through :func:`shifted_recovery` /
#: :func:`shifted_recovery_row`, or the paths drift apart and break the
#: batched == looped bit-identity pin.
RECOVERY_CAP = 0.999


def portfolio_arrays(
    options: list[CDSOption],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pack a portfolio's schedules into padded 2-D arrays.

    Returns
    -------
    times:
        ``(n_options, max_len)`` payment times, padded with the final time
        of each row.  The padding is *benign by construction*: repeating
        the final time with a zero accrual makes every padded term of the
        pricing reductions exactly ``+0.0`` (equal consecutive times give
        zero default probability), which the kernels rely on instead of
        masking — :class:`PackedPortfolio` validates the invariant.
    accruals:
        Same shape; year fractions, zero in padded slots.
    mask:
        Boolean validity mask, same shape.
    recovery:
        ``(n_options,)`` recovery rates.
    """
    if not options:
        raise ValidationError("portfolio must contain at least one option")
    schedules = [build_schedule(o) for o in options]
    max_len = max(len(s) for s in schedules)
    n = len(options)
    times = np.empty((n, max_len), dtype=np.float64)
    accruals = np.zeros((n, max_len), dtype=np.float64)
    mask = np.zeros((n, max_len), dtype=bool)
    for row, sched in enumerate(schedules):
        k = len(sched)
        times[row, :k] = sched.times
        times[row, k:] = sched.times[-1]  # benign padding value
        accruals[row, :k] = sched.accruals
        mask[row, :k] = True
    recovery = np.asarray([o.recovery_rate for o in options], dtype=np.float64)
    return times, accruals, mask, recovery


@dataclass(frozen=True)
class PackedPortfolio:
    """A packed portfolio plus the state-independent kernel intermediates.

    The padded arrays of :func:`portfolio_arrays` depend only on the
    contracts, never on the market state, and so do several intermediates
    the pricing kernel needs every call (the flattened time grid, each
    row's last valid column).  Packing them once lets a revaluation
    engine reprice thousands of scenarios without re-deriving them per
    scenario.

    Attributes
    ----------
    times / accruals / mask / recovery:
        The :func:`portfolio_arrays` layout.
    flat_times:
        ``times`` flattened to ``(n_options * max_len,)`` — the curve
        evaluation grid.
    last_idx:
        ``(n_options,)`` index of each row's last valid column (for
        survival-at-maturity gathers).
    unique_times / unique_inverse:
        ``np.unique(flat_times, return_inverse=True)``, computed lazily
        on first access (only the scenario kernel needs it): payment
        grids overlap heavily across a book's contracts (quarterly and
        semi-annual schedules share their dates), so curve evaluation
        collapses to the unique times — typically tens of times fewer —
        and scatters back by ``unique_inverse``.  Values are identical
        bit for bit; only redundant work disappears.
    """

    times: np.ndarray
    accruals: np.ndarray
    mask: np.ndarray
    recovery: np.ndarray
    flat_times: np.ndarray = field(init=False)
    last_idx: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.times.ndim != 2 or self.times.shape != self.mask.shape:
            raise ValidationError(
                "times and mask must be 2-D arrays of equal shape, got "
                f"{self.times.shape} and {self.mask.shape}"
            )
        object.__setattr__(self, "flat_times", self.times.reshape(-1))
        last_idx = self.mask.sum(axis=1) - 1
        object.__setattr__(self, "last_idx", last_idx)
        # The mask-free kernels require the benign-padding invariant of
        # :func:`portfolio_arrays`: padded slots repeat the row's final
        # valid time and carry zero accrual (so every padded reduction
        # term is exactly +0.0).  Reject other paddings loudly instead
        # of pricing them wrong silently.
        if np.any(last_idx < 0):
            raise ValidationError("every row needs at least one valid column")
        final_times = self.times[np.arange(self.times.shape[0]), last_idx]
        if not np.all(
            self.mask | (self.times == final_times[:, None])
        ) or np.any(self.accruals[~self.mask] != 0.0):
            raise ValidationError(
                "padded slots must repeat the row's final payment time "
                "with zero accrual (the portfolio_arrays layout)"
            )

    @cached_property
    def _unique_pair(self) -> tuple[np.ndarray, np.ndarray]:
        unique, inverse = np.unique(self.flat_times, return_inverse=True)
        return unique, inverse.reshape(-1)

    @property
    def unique_times(self) -> np.ndarray:
        """Sorted distinct payment times (lazy; see class docstring)."""
        return self._unique_pair[0]

    @property
    def unique_inverse(self) -> np.ndarray:
        """Scatter index from ``unique_times`` back to ``flat_times``."""
        return self._unique_pair[1]

    @classmethod
    def pack(cls, options: list[CDSOption]) -> "PackedPortfolio":
        """Pack ``options`` via :func:`portfolio_arrays`."""
        return cls(*portfolio_arrays(options))

    @property
    def n_options(self) -> int:
        """Number of packed contracts."""
        return int(self.times.shape[0])

    @property
    def max_len(self) -> int:
        """Padded schedule length."""
        return int(self.times.shape[1])


@dataclass(frozen=True)
class VectorCDSPricer:
    """Vectorised portfolio pricer sharing the reference model's semantics.

    Parameters
    ----------
    yield_curve:
        Interest-rate term structure used for discounting.
    hazard_curve:
        Hazard-rate term structure used for survival probabilities.
    """

    yield_curve: YieldCurve
    hazard_curve: HazardCurve

    def spreads(self, options: list[CDSOption]) -> np.ndarray:
        """Par spreads in basis points as a float64 array (fast path)."""
        spreads, _ = self._compute(options, want_legs=False)
        return spreads

    def price_portfolio_detailed(
        self, options: list[CDSOption]
    ) -> tuple[np.ndarray, list[LegBreakdown]]:
        """Spreads plus a per-option leg breakdown."""
        spreads, leg_arrays = self._compute(options, want_legs=True)
        premium, protection, accrual, surv = leg_arrays
        legs = [
            LegBreakdown(
                premium_leg=float(premium[i]),
                protection_leg=float(protection[i]),
                accrual_leg=float(accrual[i]),
                survival_at_maturity=float(surv[i]),
            )
            for i in range(len(options))
        ]
        return spreads, legs

    # ------------------------------------------------------------------
    def _compute(
        self, options: list[CDSOption], *, want_legs: bool
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
        return price_packed_book(
            PackedPortfolio.pack(options),
            self.yield_curve,
            self.hazard_curve,
            want_legs=want_legs,
        )


def _spreads_and_legs(
    discount: np.ndarray,
    survival: np.ndarray,
    masked_accruals: np.ndarray,
    recovery: np.ndarray,
    last_idx: np.ndarray,
    *,
    want_legs: bool,
    row_name: Callable[[int], str] | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """Leg math on pre-evaluated curve tables (one row per contract-state).

    Every argument is laid out as ``(rows, max_len)`` (or ``(rows,)``) —
    a single-state portfolio passes its ``n_options`` rows, the scenario
    kernel passes ``n_scenarios * n_options`` rows.  Both therefore run
    the *same* einsum reductions over the same contiguous axis, which is
    what makes the batched path bit-identical to the looped one.

    No validity mask is needed: :func:`portfolio_arrays` pads each row
    with its final payment time and zero accruals, so every padded term
    below is exactly ``+0.0`` — the accruals zero the premium and accrual
    sums, and equal padded times make consecutive survivals cancel to
    zero default probability.
    """
    # Default probability per period: S(t_{i-1}) - S(t_i), with
    # S(t_0) = 1 in the first column.  Padded columns repeat the final
    # time, so their difference is exactly zero.
    default_in_period = np.empty_like(survival)
    np.subtract(1.0, survival[:, 0], out=default_in_period[:, 0])
    np.subtract(survival[:, :-1], survival[:, 1:], out=default_in_period[:, 1:])

    premium = np.einsum("ij,ij,ij->i", discount, survival, masked_accruals)
    protection_raw = np.einsum("ij,ij->i", discount, default_in_period)
    accrual = 0.5 * np.einsum(
        "ij,ij,ij->i", discount, default_in_period, masked_accruals
    )
    protection = (1.0 - recovery) * protection_raw

    annuity = premium + accrual
    if np.any(annuity <= 0.0) or not np.all(np.isfinite(annuity)):
        bad = int(np.flatnonzero((annuity <= 0.0) | ~np.isfinite(annuity))[0])
        # The batched kernel's rows are scenario-major; let it decode the
        # flat row into (scenario, option) for the message.
        label = row_name(bad) if row_name else f"option index {bad}"
        raise ValidationError(
            f"non-positive risky annuity for {label}: {annuity[bad]!r}"
        )
    spreads = BASIS_POINTS * protection / annuity

    if not want_legs:
        return spreads, None
    # Survival at maturity = last *valid* column of each row.
    surv_mat = survival[np.arange(survival.shape[0]), last_idx]
    return spreads, (premium, protection, accrual, surv_mat)


def price_packed_book(
    packed: PackedPortfolio,
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    *,
    recovery: np.ndarray | None = None,
    want_legs: bool = True,
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """Price a :class:`PackedPortfolio` under one market state.

    The state-independent intermediates are read off ``packed`` instead
    of being re-derived, so per-state callers (revaluation loops) pay
    only the curve evaluation and the leg reductions.

    Parameters
    ----------
    packed:
        The packed book.
    yield_curve / hazard_curve:
        The market state to price under.
    recovery:
        Optional override of the packed recovery rates (e.g. a
        scenario-shifted vector); defaults to ``packed.recovery``.
    want_legs:
        When false, skip the leg breakdown and return ``(spreads, None)``.
    """
    rec = packed.recovery if recovery is None else recovery
    survival = np.asarray(hazard_curve.survival(packed.flat_times)).reshape(
        packed.times.shape
    )
    discount = np.asarray(yield_curve.discount(packed.flat_times)).reshape(
        packed.times.shape
    )
    return _spreads_and_legs(
        discount,
        survival,
        packed.accruals,
        rec,
        packed.last_idx,
        want_legs=want_legs,
    )


#: Working-set budget (bytes) the automatic chunk size aims at for the
#: survival/discount pair of one kernel chunk.  Small enough that the
#: chunk's tables stay cache-resident — pricing the whole grid in one
#: shot streams hundreds of megabytes through memory and is *slower* —
#: large enough to amortise per-chunk fixed costs.
CHUNK_TARGET_BYTES = 6 << 20


def auto_chunk_size(n_options: int, max_len: int) -> int:
    """Scenarios per kernel chunk targeting :data:`CHUNK_TARGET_BYTES`.

    Parameters
    ----------
    n_options / max_len:
        The packed-book grid shape (one scenario costs roughly
        ``2 * n_options * max_len`` float64 table entries).
    """
    per_scenario = 2 * n_options * max_len * 8
    return max(1, CHUNK_TARGET_BYTES // per_scenario)


def shifted_recovery(recovery: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per-scenario recovery rates under additive shifts.

    Rows with a non-zero shift are clamped to ``[0, RECOVERY_CAP]`` after
    the shift; zero-shift rows pass the base rates through untouched —
    the same conditional the per-scenario revaluation path applies
    (:func:`shifted_recovery_row`), preserved so the batched path stays
    bit-identical.

    Parameters
    ----------
    recovery:
        ``(n_options,)`` base recovery rates.
    shifts:
        ``(n_scenarios,)`` additive shifts.

    Returns
    -------
    np.ndarray
        ``(n_scenarios, n_options)`` recovery rates.
    """
    rec = np.asarray(recovery, dtype=np.float64)
    sh = np.asarray(shifts, dtype=np.float64)
    base = np.broadcast_to(rec[None, :], (sh.size, rec.size))
    if not np.any(sh):
        return base
    shifted = np.clip(rec[None, :] + sh[:, None], 0.0, RECOVERY_CAP)
    return np.where(sh[:, None] != 0.0, shifted, base)


def shifted_recovery_row(
    recovery: np.ndarray, shift: float
) -> np.ndarray | None:
    """Clamped recovery rates under one scalar shift, ``None`` if unshifted.

    The single-state counterpart of :func:`shifted_recovery`: per-scenario
    revaluation loops and the session's tensor decomposition both apply
    exactly this conditional, so the looped path stays bit-identical to
    the batched kernel.  ``None`` (for a zero shift) tells the pricing
    path to use the contracts' own rates untouched.

    Parameters
    ----------
    recovery:
        ``(n_options,)`` base recovery rates.
    shift:
        The scenario's additive recovery shift.
    """
    if shift == 0.0:
        return None
    return np.clip(
        np.asarray(recovery, dtype=np.float64) + shift, 0.0, RECOVERY_CAP
    )


def price_packed_many(
    packed: PackedPortfolio,
    yield_times: np.ndarray,
    yield_values: np.ndarray,
    hazard_times: np.ndarray,
    hazard_values: np.ndarray,
    *,
    recovery_shifts: np.ndarray | None = None,
    want_legs: bool = True,
    chunk_size: int | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """Price a packed portfolio under many market states in one kernel call.

    The scenario axis leads: row ``s`` of ``yield_values`` /
    ``hazard_values`` is one complete market state on the shared knot
    grids.  Curves for all scenarios are evaluated in one vectorised pass
    and the leg math runs on an ``(n_scenarios * n_options, max_len)``
    layout — the identical reductions as :func:`price_packed_book`, making the
    result bit-identical to a per-scenario loop.

    Parameters
    ----------
    packed:
        The packed book (state-independent).
    yield_times / yield_values:
        Shared yield knot grid ``(k_y,)`` and per-scenario zero-rate rows
        ``(n_scenarios, k_y)``.
    hazard_times / hazard_values:
        Shared hazard knot grid ``(k_h,)`` and per-scenario intensity rows
        ``(n_scenarios, k_h)``.
    recovery_shifts:
        Optional ``(n_scenarios,)`` additive recovery shifts (see
        :func:`shifted_recovery`).
    want_legs:
        When false, return ``(spreads, None)``.
    chunk_size:
        Maximum scenarios per internal kernel invocation.  Peak memory
        scales with ``chunk_size * n_options * max_len``; ``None`` picks
        a cache-friendly size automatically (see
        :data:`CHUNK_TARGET_BYTES`).  Chunking never changes the
        numbers — rows are independent.

    Returns
    -------
    tuple
        ``(spreads_bps, legs)`` of shape ``(n_scenarios, n_options)``
        arrays; ``legs`` is ``None`` or the ``(premium, protection,
        accrual, survival_at_maturity)`` tuple.
    """
    yv = np.atleast_2d(np.asarray(yield_values, dtype=np.float64))
    hv = np.atleast_2d(np.asarray(hazard_values, dtype=np.float64))
    n_scenarios = yv.shape[0]
    if n_scenarios == 0:
        raise ValidationError("price_packed_many needs at least one scenario")
    if hv.shape[0] != n_scenarios:
        raise ValidationError(
            "yield_values and hazard_values must agree on the scenario "
            f"count, got {n_scenarios} and {hv.shape[0]}"
        )
    if recovery_shifts is None:
        shifts = np.zeros(n_scenarios, dtype=np.float64)
    else:
        shifts = np.asarray(recovery_shifts, dtype=np.float64)
        if shifts.shape != (n_scenarios,):
            raise ValidationError(
                f"recovery_shifts must have shape ({n_scenarios},), got "
                f"{shifts.shape}"
            )
    if chunk_size is not None and chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")

    n, width = packed.times.shape
    spreads = np.empty((n_scenarios, n), dtype=np.float64)
    legs = (
        tuple(np.empty((n_scenarios, n), dtype=np.float64) for _ in range(4))
        if want_legs
        else None
    )
    step = chunk_size if chunk_size is not None else auto_chunk_size(n, width)
    step = min(step, n_scenarios)

    hook = _PROFILE_HOOK
    if hook is not None:
        hook.on_call()

    # State-independent operands, tiled once for the common chunk shape
    # (the final short chunk slices them down).
    inv = packed.unique_inverse
    acc_rows = np.tile(packed.accruals, (step, 1))
    last_rows = np.tile(packed.last_idx, step)

    for lo in range(0, n_scenarios, step):
        hi = min(lo + step, n_scenarios)
        m = hi - lo
        rows = m * n
        chunk_t0 = time.perf_counter() if hook is not None else 0.0
        # Curves are evaluated on the deduplicated payment-time grid and
        # scattered back to the padded (rows, width) schedule layout —
        # identical values, a fraction of the evaluation work.  ``take``
        # (not fancy indexing) keeps the gather C-contiguous so the
        # reshape below is a free view.
        survival = survival_many(
            packed.unique_times, hazard_times, hv[lo:hi]
        ).take(inv, axis=1).reshape(rows, width)
        discount = discount_factors_many(
            packed.unique_times, yield_times, yv[lo:hi]
        ).take(inv, axis=1).reshape(rows, width)
        sp, lg = _spreads_and_legs(
            discount,
            survival,
            acc_rows[:rows],
            shifted_recovery(packed.recovery, shifts[lo:hi]).reshape(rows),
            last_rows[:rows],
            want_legs=want_legs,
            row_name=lambda row, lo=lo: (
                f"scenario {lo + row // n}, option index {row % n}"
            ),
        )
        spreads[lo:hi] = sp.reshape(m, n)
        if want_legs:
            for out, part in zip(legs, lg):
                out[lo:hi] = part.reshape(m, n)
        if hook is not None:
            hook.on_chunk(m, rows, time.perf_counter() - chunk_t0)
    return spreads, legs
