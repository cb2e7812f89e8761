"""NumPy-vectorised batch CDS pricer.

This is the software-optimised counterpart of the scalar reference pricer in
:mod:`repro.core.pricing`: it prices an entire option portfolio with array
operations and no per-option Python loop over time points.  It backs the
"bespoke version of the engine in C++ with OpenMP" CPU baseline of the paper
(Section II.B) — the vectorisation plays the role of the compiler's ``-O3``
inner-loop optimisation, and :mod:`repro.cpu.engine` adds multiprocessing for
the multi-core rows.

Contracts are laid out along one axis and their (ragged) payment
schedules along the other.  :class:`PackedPortfolio` pads every schedule
to the book's longest by repeating its final payment time with a zero
accrual, so every padded term of the leg reductions is exactly ``+0.0``
and no mask is needed.  The kernels price on a *leg layout* of those rows
(:meth:`PackedPortfolio.leg_layout`), built once per book:

* one market state prices the padded rows as they are: one group of the
  book's full width;
* several states at once group the contracts by schedule length, each
  padded only up to the next multiple of :data:`BUCKET_COLUMNS` columns
  (capped at the book's width).  The curve gather and the leg
  reductions then skip most of the padding (11,400 slots per state fall
  to 4,716 on the risk benchmark's 100-contract book), and the sums stay
  bit-identical to the padded layout's (see :data:`BUCKET_COLUMNS`).

Two batch depths are exposed:

* :func:`price_packed_book` — one market state, the whole packed
  portfolio.  Used by :class:`VectorCDSPricer` and by per-scenario
  revaluation loops.
* :func:`price_packed_many` — many market states at once: the scenario
  axis of a risk grid becomes a leading array dimension, the curves are
  evaluated for every scenario in one vectorised pass on the book's
  distinct payment times and gathered into the chunk's leg layout, and
  each group's leg sums run as ``(scenarios, contracts, width)``
  reductions — the same einsum calls as the single-state kernel.
  Results are **bit-identical** to calling :func:`price_packed_book`
  once per scenario; a ``chunk_size`` knob bounds peak memory on large
  grids.

Work that depends only on the book and the knot grids is done once, not
per call.  The lookups of the book's unique payment times on each knot
grid (interval indices, offsets, out-of-range masks: the
:class:`~repro.core.curves.DiscountPlan` /
:class:`~repro.core.curves.SurvivalPlan` of the curve evaluation) are
kept on the :class:`PackedPortfolio` and reused while the same read-only
grids come back, as they do for every call replaying one market tape or
scenario tensor.  A batch-1 quote then pays only the arithmetic on its
curve values.  The plans hold no curve value, so reusing them changes no
number.

A cell whose risky annuity is not positive and finite has no spread.
The batched kernel still prices every cell of the call and then raises
:class:`InvalidAnnuityError`, which carries the whole result and the
per-cell validity mask, so a caller that reads only valid cells (the
quote server's table) loses nothing, and every other caller fails on the
first invalid cell as before.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.core.curves import (
    DiscountPlan,
    HazardCurve,
    SurvivalPlan,
    YieldCurve,
)
from repro.core.pricing import BASIS_POINTS
from repro.core.schedule import build_schedule
from repro.core.types import CDSOption, LegBreakdown
from repro.core.validation import check_count
from repro.errors import ValidationError

__all__ = [
    "VectorCDSPricer",
    "PackedPortfolio",
    "portfolio_arrays",
    "price_packed_book",
    "price_packed_many",
    "InvalidAnnuityError",
    "LegGroup",
    "LegLayout",
    "is_frozen",
    "shifted_recovery",
    "shifted_recovery_row",
    "auto_chunk_size",
    "get_kernel_profile_hook",
    "set_kernel_profile_hook",
    "BUCKET_COLUMNS",
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


#: Column block of the length-bucketed leg layout: a contract's schedule
#: is padded up to a multiple of this many columns, capped at the book's
#: width.  NumPy's two-operand einsum sums a row in blocks of four SIMD
#: vectors (8 doubles on an SSE baseline build, 32 on AVX-512), so a row
#: cut at a multiple of the block keeps every payment in the lane it has
#: in the fully padded row, and the dropped slots only added exact
#: ``+0.0``.  The three-operand einsums sum in sequence, which any cut
#: keeps.  Bucketed sums therefore equal the padded ones bit for bit;
#: ``tests/properties/test_prop_batching.py`` checks the rule on the
#: running NumPy.
BUCKET_COLUMNS = 32


class LegGroup(NamedTuple):
    """Contracts of one bucket width, side by side in a leg layout."""

    #: The group's columns in a chunk's curve tables.
    slots: slice
    #: The group's contracts, by position in the layout's group order.
    contracts: slice
    #: ``(contracts, width)`` accruals, zero past each schedule.
    accruals: np.ndarray


class LegLayout(NamedTuple):
    """Where a kernel chunk's curve tables put each payment slot.

    A chunk gathers its ``(states, slots)`` survival and discount tables
    in this layout; the leg math then reduces each group as a
    ``(states, contracts, width)`` view and puts the sums back in book
    order.
    """

    #: ``(slots,)`` index of each slot's payment time in
    #: :attr:`PackedPortfolio.unique_times`; ``None`` for the padded
    #: layout, whose slots are :attr:`PackedPortfolio.flat_times`.
    gather: np.ndarray | None
    #: The groups, in table order.
    groups: tuple[LegGroup, ...]
    #: ``(n_options,)`` group-order position of each contract in book
    #: order; ``None`` when the groups are in book order already.
    order: np.ndarray | None
    #: ``(n_options,)`` slot of each contract's final payment.
    last: np.ndarray


def is_frozen(arr: np.ndarray) -> bool:
    """Whether ``arr`` and every array under it are read-only NumPy arrays."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


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

    The scenario kernel's curve lookups of ``unique_times`` against a
    knot grid are state-independent too; :meth:`curve_plans` keeps the
    last pair it built.  So are the kernels' leg layouts
    (:meth:`leg_layout`), built lazily once per book.
    """

    times: np.ndarray
    accruals: np.ndarray
    mask: np.ndarray
    recovery: np.ndarray
    flat_times: np.ndarray = field(init=False)
    last_idx: np.ndarray = field(init=False)
    _plans: tuple | None = field(
        init=False, default=None, repr=False, compare=False
    )

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
        if not np.all(last_idx >= 0):
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

    def curve_plans(
        self, yield_times: np.ndarray, hazard_times: np.ndarray
    ) -> tuple[DiscountPlan, SurvivalPlan]:
        """The curve lookups of ``unique_times`` on the two knot grids.

        A one-entry memo: the plans are reused while the *same*
        read-only knot arrays come back (a :class:`~repro.risk.tensor.
        ScenarioTensor` freezes its grids, so replaying one tape or
        scenario set builds them once).  Any other input builds them
        afresh, since a writable array may have changed in place.
        """
        frozen = is_frozen(yield_times) and is_frozen(hazard_times)
        memo = self._plans
        if frozen and memo and memo[0] is yield_times and memo[1] is hazard_times:
            return memo[2], memo[3]
        plans = (
            DiscountPlan(self.unique_times, yield_times),
            SurvivalPlan(self.unique_times, hazard_times),
        )
        if frozen:
            object.__setattr__(
                self, "_plans", (yield_times, hazard_times, *plans)
            )
        return plans

    def leg_layout(self, n_rows: int) -> LegLayout:
        """The leg layout of a kernel chunk of ``n_rows`` market states.

        Several states share the length-bucketed layout.  One state
        prices the padded rows as one group: a one-row call costs mostly
        per NumPy call, and each extra group adds three einsum calls,
        which cost it more than the padding does.  Both layouts give the
        same numbers bit for bit.
        """
        return self._padded_layout if n_rows == 1 else self._bucketed_layout

    @cached_property
    def _padded_layout(self) -> LegLayout:
        n, width = self.times.shape
        group = LegGroup(slice(0, n * width), slice(0, n), self.accruals)
        return LegLayout(
            None, (group,), None, np.arange(n) * width + self.last_idx
        )

    @cached_property
    def _bucketed_layout(self) -> LegLayout:
        n, width = self.times.shape
        blocks = -(-(self.last_idx + 1) // BUCKET_COLUMNS)
        widths = np.minimum(blocks * BUCKET_COLUMNS, width)
        members = np.argsort(widths, kind="stable")  # book index by position
        inverse = self.unique_inverse.reshape(n, width)
        first = np.empty(n, dtype=np.intp)  # each contract's first slot
        groups, gathers = [], []
        slot = pos = 0
        for w, k in zip(*np.unique(widths, return_counts=True)):
            w, k = int(w), int(k)
            rows = members[pos:pos + k]
            groups.append(
                LegGroup(
                    slice(slot, slot + k * w),
                    slice(pos, pos + k),
                    self.accruals[rows, :w],
                )
            )
            gathers.append(inverse[rows, :w].reshape(-1))
            first[rows] = slot + w * np.arange(k)
            slot += k * w
            pos += k
        return LegLayout(
            np.concatenate(gathers),
            tuple(groups),
            np.argsort(members) if len(groups) > 1 else None,
            first + self.last_idx,
        )

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


def _annuity_message(label: str, annuity: float) -> str:
    return f"non-positive risky annuity for {label}: {float(annuity)!r}"


def _valid_annuity(annuity: np.ndarray) -> np.ndarray:
    """Cells whose risky annuity is positive and finite."""
    return (annuity > 0.0) & (annuity < np.inf)  # also rejects NaN


class InvalidAnnuityError(ValidationError):
    """A batched kernel call that priced cells with an invalid annuity.

    Raised only once the call has priced every cell, so nothing is lost:
    :attr:`result` is what the call would have returned (a caller that
    reshapes its result on the way up, such as legs reduced to PVs,
    replaces it), :attr:`row_ids` names the call's states, and
    :attr:`valid` marks the ``(n_states, n_options)`` cells whose risky
    annuity is positive and finite.  The message names the first invalid
    cell in scenario-major order, the cell a caller that treats any
    invalid cell as fatal fails on; :meth:`cell_messages` names them all.
    """

    def __init__(
        self,
        result: tuple,
        valid: np.ndarray,
        annuity: np.ndarray,
        row_ids: Sequence,
    ) -> None:
        # ``annuity`` holds the invalid cells' values only, in
        # ``np.argwhere(~valid)`` order.
        self.result = result
        self.valid = valid
        self.row_ids = row_ids
        self._annuity = annuity
        super().__init__(next(self.cell_messages())[1])

    def cell_messages(self) -> Iterator[tuple[tuple[int, int], str]]:
        """``((state, option), text)`` for each invalid cell, in
        scenario-major order; the text names the state's row id and the
        contract's book index."""
        for (state, option), value in zip(
            np.argwhere(~self.valid).tolist(), self._annuity
        ):
            yield (state, option), _annuity_message(
                f"scenario {self.row_ids[state]}, option index {option}",
                value,
            )


def _spreads_and_legs(
    layout: LegLayout,
    discount: np.ndarray,
    survival: np.ndarray,
    recovery: np.ndarray,
    *,
    want_legs: bool,
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None, np.ndarray]:
    """Leg math on curve tables gathered into ``layout``.

    ``discount`` and ``survival`` are ``(states, slots)`` tables;
    ``recovery`` broadcasts against the ``(states, n_options)`` result.
    Both kernels run this routine: the single-state kernel on one row of
    the padded layout, the scenario kernel on chunks of states.  Each
    group's sums are the same einsum reductions over each contract's
    contiguous slots, which is what keeps every layout and every chunk
    bit-identical.

    No validity mask is needed: every padded slot repeats its contract's
    final payment time with a zero accrual, so every padded term below
    is exactly ``+0.0`` — the accruals zero the premium and accrual
    sums, and equal padded times make consecutive survivals cancel to
    zero default probability.

    Returns ``(spreads, legs, annuity)``, each ``(states, n_options)`` in
    book order.  A cell whose annuity is not valid
    (:func:`_valid_annuity`) has a meaningless spread; the callers check
    the annuity.
    """
    m = survival.shape[0]
    # Default probability per period: S(t_{i-1}) - S(t_i), with
    # S(t_0) = 1 in each contract's first slot.  Padded slots repeat the
    # final time, so their difference is exactly zero.  The differences
    # run in one contiguous pass over the flattened tables (about twice
    # as fast as a strided pass per contract); the first slots, which
    # that pass fills across contract boundaries, are then overwritten.
    flat = survival.reshape(-1)
    default_in_period = np.empty(survival.shape)
    np.subtract(flat[:-1], flat[1:], out=default_in_period.reshape(-1)[1:])

    # Premium, raw protection and raw accrual sums, in group order.
    sums = np.empty((3, m, layout.last.size))
    for group in layout.groups:
        k, w = group.accruals.shape
        d, s, p = (
            table[:, group.slots].reshape(m, k, w)
            for table in (discount, survival, default_in_period)
        )
        np.subtract(1.0, s[:, :, 0], out=p[:, :, 0])
        premium, protection_raw, accrual_raw = sums[:, :, group.contracts]
        np.einsum("mkj,mkj,kj->mk", d, s, group.accruals, out=premium)
        np.einsum("mkj,mkj->mk", d, p, out=protection_raw)
        np.einsum("mkj,mkj,kj->mk", d, p, group.accruals, out=accrual_raw)
    if layout.order is not None:
        sums = sums.take(layout.order, axis=2)

    # The elementwise finish, once, in book order.
    premium, protection_raw, accrual_raw = sums
    protection = (1.0 - recovery) * protection_raw
    accrual = 0.5 * accrual_raw
    annuity = premium + accrual
    with np.errstate(divide="ignore", invalid="ignore"):
        spreads = BASIS_POINTS * protection / annuity

    if not want_legs:
        return spreads, None, annuity
    surv_mat = survival.take(layout.last, axis=1)
    return spreads, (premium, protection, accrual, surv_mat), annuity


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
    # The padded layout's slots are the flat payment times themselves.
    survival = np.asarray(hazard_curve.survival(packed.flat_times))
    discount = np.asarray(yield_curve.discount(packed.flat_times))
    spreads, legs, annuity = _spreads_and_legs(
        packed.leg_layout(1),
        discount.reshape(1, -1),
        survival.reshape(1, -1),
        rec,
        want_legs=want_legs,
    )
    valid = _valid_annuity(annuity[0])
    if not valid.all():
        bad = int(np.flatnonzero(~valid)[0])
        raise ValidationError(
            _annuity_message(f"option index {bad}", annuity[0, bad])
        )
    return spreads[0], None if legs is None else tuple(p[0] for p in legs)


#: Working-set budget (bytes) of the automatic chunk size, counted on
#: the padded survival/discount pair of one kernel chunk (see
#: :func:`auto_chunk_size`).  Small enough that the chunk's tables stay
#: cache-resident — pricing the whole grid in one shot streams hundreds
#: of megabytes through memory and is *slower* — large enough to
#: amortise per-chunk fixed costs.
CHUNK_TARGET_BYTES = 6 << 20


def auto_chunk_size(n_options: int, max_len: int) -> int:
    """Scenarios per kernel chunk targeting :data:`CHUNK_TARGET_BYTES`.

    The budget counts one scenario as the padded ``2 * n_options *
    max_len`` float64 table entries, although a chunk of several states
    gathers only its length-bucketed slots (:meth:`PackedPortfolio.
    leg_layout`).  Sized on those smaller tables, the risk benchmark's
    100-contract book would get chunks of 83 scenarios instead of 34,
    and a sweep of its kernel measured the larger chunks slower.

    Parameters
    ----------
    n_options / max_len:
        The packed-book grid shape.
    """
    per_scenario = 2 * n_options * max_len * 8
    return max(1, CHUNK_TARGET_BYTES // per_scenario)


def shifted_recovery(
    recovery: np.ndarray, shifts: np.ndarray, names: Sequence | None = None
) -> np.ndarray:
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
    names:
        Optional ``(n_scenarios,)`` names of the scenario rows, used by
        the error a bad shift raises; defaults to each row's position.

    Returns
    -------
    np.ndarray
        ``(n_scenarios, n_options)`` recovery rates.

    Raises
    ------
    ValidationError
        If a shift is NaN or infinite (the clamp would hide an infinite
        one and pass a NaN through to the quotes).
    """
    rec = np.asarray(recovery, dtype=np.float64)
    sh = np.asarray(shifts, dtype=np.float64)
    base = rec[None, :]
    if not sh.any():
        return base.repeat(sh.size, axis=0)
    finite = np.isfinite(sh)
    if not finite.all():
        bad = int(np.flatnonzero(~finite)[0])
        raise ValidationError(
            f"non-finite recovery shift for scenario "
            f"{bad if names is None else names[bad]}: {float(sh[bad])!r}"
        )
    shifted = np.clip(base + sh[:, None], 0.0, RECOVERY_CAP)
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

    Raises
    ------
    ValidationError
        If ``shift`` is NaN or infinite, as :func:`shifted_recovery` does.
    """
    if shift == 0.0:
        return None
    if not math.isfinite(shift):
        raise ValidationError(f"non-finite recovery shift: {float(shift)!r}")
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
    row_ids: np.ndarray | Sequence[int] | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
    """Price a packed portfolio under many market states in one kernel call.

    The scenario axis leads: row ``s`` of ``yield_values`` /
    ``hazard_values`` is one complete market state on the shared knot
    grids.  The states are priced in chunks of ``chunk_size`` scenarios,
    each in three steps:

    1. evaluate the curves of the chunk's states on the book's distinct
       payment times and gather each table once into the chunk's leg
       layout (:meth:`PackedPortfolio.leg_layout`: length-bucketed, or
       the padded rows for a one-state chunk);
    2. per group of the layout, run the three einsum reductions on
       ``(states, contracts, width)`` views, the accruals broadcast over
       the states;
    3. once, in book order: recovery, annuity, spreads, the validity
       check and survival at maturity.

    The reductions are the ones :func:`price_packed_book` runs, so the
    result is bit-identical to a per-scenario loop for any chunking.

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
        scales with ``chunk_size`` times the layout's slots per state;
        ``None`` picks a cache-friendly size automatically (see
        :func:`auto_chunk_size`).  Chunking never changes the numbers —
        rows are independent.
    row_ids:
        Optional ``(n_scenarios,)`` names of the scenario rows — e.g. the
        rows of the tensor they were gathered from — used by the errors a
        non-positive annuity or a non-finite recovery shift raises.
        Defaults to each row's position; any other length is refused.

    Returns
    -------
    tuple
        ``(spreads_bps, legs)`` of shape ``(n_scenarios, n_options)``
        arrays; ``legs`` is ``None`` or the ``(premium, protection,
        accrual, survival_at_maturity)`` tuple.

    Raises
    ------
    InvalidAnnuityError
        After pricing every cell, if any cell's risky annuity is not
        positive and finite; it carries this return value and the
        per-cell validity mask.
    """
    yt = np.asarray(yield_times, dtype=np.float64)
    ht = np.asarray(hazard_times, dtype=np.float64)
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
    # The curve plans are built from the knot times alone, so this is
    # the only guard against value rows of the wrong width.
    for curve, knots, rows in (("yield", yt, yv), ("hazard", ht, hv)):
        if rows.shape[1] != knots.size:
            raise ValidationError(
                f"{curve} rows of width {rows.shape[1]} do not match a "
                f"{knots.size}-knot grid"
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
    if chunk_size is not None:
        check_count(chunk_size, "chunk_size")
    if row_ids is not None and len(row_ids) != n_scenarios:
        raise ValidationError(
            f"row_ids must name {n_scenarios} scenario(s), got "
            f"{len(row_ids)}"
        )
    names = range(n_scenarios) if row_ids is None else row_ids
    n, width = packed.times.shape
    step = chunk_size if chunk_size is not None else auto_chunk_size(n, width)
    step = min(step, n_scenarios)

    hook = _PROFILE_HOOK
    if hook is not None:
        hook.on_call()

    # State-independent operands: the curve lookups (built once per book
    # and knot grids, see PackedPortfolio.curve_plans) and the leg
    # layouts (once per book, see PackedPortfolio.leg_layout).
    discount_plan, survival_plan = packed.curve_plans(yt, ht)
    recovery = shifted_recovery(packed.recovery, shifts, names)
    # Each chunk with an invalid cell keeps its mask and those cells'
    # annuities for the report; a clean call keeps nothing.
    invalid: list[tuple[int, np.ndarray, np.ndarray]] = []

    def price_chunk(lo: int, hi: int):
        m = hi - lo
        chunk_t0 = time.perf_counter() if hook is not None else 0.0
        # Curves are evaluated on the deduplicated payment-time grid and
        # gathered into the chunk's leg layout: identical values, a
        # fraction of the evaluation work.
        layout = packed.leg_layout(m)
        gather = layout.gather
        if gather is None:  # the padded layout: the flat payment times
            gather = packed.unique_inverse
        spreads, legs, annuity = _spreads_and_legs(
            layout,
            discount_plan.apply(yv[lo:hi]).take(gather, axis=1),
            survival_plan.apply(hv[lo:hi]).take(gather, axis=1),
            recovery[lo:hi],
            want_legs=want_legs,
        )
        ok = _valid_annuity(annuity)
        if not ok.all():
            invalid.append((lo, ok, annuity[~ok]))
        if hook is not None:
            hook.on_chunk(m, m * n, time.perf_counter() - chunk_t0)
        return spreads, legs

    if step == n_scenarios:
        spreads, legs = price_chunk(0, n_scenarios)
    else:
        spreads = np.empty((n_scenarios, n), dtype=np.float64)
        legs = (
            tuple(
                np.empty((n_scenarios, n), dtype=np.float64) for _ in range(4)
            )
            if want_legs
            else None
        )
        for lo in range(0, n_scenarios, step):
            hi = min(lo + step, n_scenarios)
            sp, lg = price_chunk(lo, hi)
            spreads[lo:hi] = sp
            if want_legs:
                for out, part in zip(legs, lg):
                    out[lo:hi] = part
    if invalid:
        # Chunks run in scenario order, so the report's first invalid
        # cell, the one its message names, is the same for any chunking.
        valid = np.ones((n_scenarios, n), dtype=bool)
        for lo, ok, _ in invalid:
            valid[lo:lo + len(ok)] = ok
        raise InvalidAnnuityError(
            (spreads, legs),
            valid,
            np.concatenate([values for *_, values in invalid]),
            names,
        )
    return spreads, legs
