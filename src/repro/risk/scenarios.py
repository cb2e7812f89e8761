"""Scenario generation: shocked market states for bump-and-reprice risk.

A *scenario* is a complete market state — one yield curve, one hazard
curve, optionally a recovery-rate shift — under which the whole portfolio
is repriced.  Four generator families produce :class:`ScenarioSet` objects:

``parallel_shocks``
    Whole-curve level bumps (the stress-ladder workhorse, and the parallel
    CS01/IR01 reference).
``bucketed_shocks``
    Tenor-by-tenor bumps over a bucket tiling of the curve — the scenarios
    behind bucketed CS01/IR01 ladders.  Summed over a tiling, their PV
    impact recovers the parallel bump's to first order.
``recovery_shocks`` / ``historical_replay``
    Recovery-rate shifts, and day-over-day curve moves replayed from a
    :class:`~repro.workloads.history.CurveHistory` onto today's curves.
``monte_carlo``
    A seeded correlated Monte Carlo generator: Gaussian factors per tenor
    bucket, correlated within and across the two curves via a Cholesky
    factor of a Kronecker-structured correlation matrix, with an optional
    mixture of market regimes (calm/stressed volatility scaling and credit
    drift) in the spirit of mixture-model scenario clustering.

All generators are deterministic in their seed, so risk reports reproduce
from the command line.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.risk import ONE_BP, bucket_bump, parallel_bump
from repro.core.validation import (
    check_count,
    check_finite,
    check_non_negative_finite,
    check_positive,
    check_positive_finite,
    check_range,
    check_strictly_increasing,
)
from repro.errors import ValidationError
from repro.risk.tensor import ScenarioTensor
from repro.workloads.history import CurveHistory

__all__ = [
    "Scenario",
    "ScenarioView",
    "ScenarioSet",
    "Regime",
    "CALM_STRESSED_REGIMES",
    "DEFAULT_TENOR_EDGES",
    "tenor_buckets",
    "parallel_shocks",
    "bucketed_shocks",
    "recovery_shocks",
    "historical_replay",
    "monte_carlo",
]

#: Default tenor-bucket edges (years).  The final edge is far beyond any
#: curve span so the buckets always tile the whole curve — a requirement
#: for bucketed ladders to sum back to the parallel sensitivity.
DEFAULT_TENOR_EDGES: tuple[float, ...] = (0.0, 1.0, 3.0, 5.0, 7.0, 30.0)

#: Hazard intensities may be shocked down but never below zero.
HAZARD_FLOOR = 0.0


@dataclass(frozen=True)
class Scenario:
    """One shocked market state.

    Attributes
    ----------
    label:
        Human-readable description, carried into risk-report extremes.
    yield_curve / hazard_curve:
        The full market state to reprice under.
    recovery_shift:
        Additive shift applied to every contract's recovery rate
        (post-shift recoveries are clamped to ``[0, 0.999]``).
    """

    label: str
    yield_curve: YieldCurve
    hazard_curve: HazardCurve
    recovery_shift: float = 0.0

    def __post_init__(self) -> None:
        if not self.label:
            raise ValidationError("scenario label must be non-empty")
        check_range(self.recovery_shift, "recovery_shift", "(-1, 1)")


class ScenarioView(Sequence):
    """The scenarios of a generated set: a read-only view over its tensor.

    ``len``, :attr:`labels` and :attr:`tensor` build nothing.  Reading a
    row builds its :class:`Scenario` and two curves the first time and
    keeps them, so ``view[i] is view[i]``; a slice is a tuple.

    The rows are checked once, here, as each scenario's curves would
    check them: one finite, positive, strictly increasing knot grid per
    curve, finite values, hazards >= 0 and recovery shifts in (-1, 1).
    """

    __slots__ = ("tensor", "labels", "_built")

    def __init__(self, tensor: ScenarioTensor, labels: Sequence[str]) -> None:
        self.labels = tuple(labels)
        if len(self.labels) != tensor.n_scenarios or not all(self.labels):
            raise ValidationError(
                "need one non-empty label per row of a "
                f"{tensor.n_scenarios}-row tensor, got {len(self.labels)}"
            )
        for name in ("yield_times", "hazard_times"):
            times = getattr(tensor, name)
            check_finite(times, name)
            check_positive(times, name)
            check_strictly_increasing(times, name)
        hazards = tensor.hazard_values
        for name, rule, ok in (
            ("yield_values", "finite", np.isfinite(tensor.yield_values).all(1)),
            ("hazard_values", "finite and >= 0",
             (hazards.min(1) >= 0) & (hazards.max(1) < math.inf)),
            ("recovery_shifts", "in (-1, 1)", abs(tensor.recovery_shifts) < 1),
        ):
            if not ok.all():
                raise ValidationError(
                    f"{name} must be {rule}; row {int(np.argmin(ok))} is not"
                )
        self.tensor = tensor
        self._built: list[Scenario | None] = [None] * len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        scenario = self._built[i]
        if scenario is None:
            t = self.tensor
            scenario = self._built[i] = Scenario(
                label=self.labels[i],
                yield_curve=YieldCurve(t.yield_times, t.yield_values[i]),
                hazard_curve=HazardCurve(t.hazard_times, t.hazard_values[i]),
                recovery_shift=float(t.recovery_shifts[i]),
            )
        return scenario


@dataclass(frozen=True)
class ScenarioSet:
    """A named collection of scenarios sharing one base market state.

    Attributes
    ----------
    name:
        Generator family name (``parallel``, ``bucketed:cs01``, ``mc`` ...).
    base_yield / base_hazard:
        The unshocked state every scenario was derived from; revaluation
        quotes P&L against this state.
    scenarios:
        The shocked states, in generation order: a tuple of
        :class:`Scenario`, or a :class:`ScenarioView` over the rows that
        ``monte_carlo`` and ``historical_replay`` write.
    tensor:
        The view's :class:`~repro.risk.tensor.ScenarioTensor`, or
        ``None`` for a tuple, which batched revaluation lowers on
        demand.  It always comes from ``scenarios``: a value passed here
        is replaced, so a set rebuilt by ``dataclasses.replace`` cannot
        hold a stale tensor.
    """

    name: str
    base_yield: YieldCurve
    base_hazard: HazardCurve
    scenarios: tuple[Scenario, ...] | ScenarioView
    tensor: ScenarioTensor | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("scenario set name must be non-empty")
        if not self.scenarios:
            raise ValidationError("a scenario set must hold at least one scenario")
        view = isinstance(self.scenarios, ScenarioView)
        object.__setattr__(self, "tensor", self.scenarios.tensor if view else None)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __getitem__(self, i: int) -> Scenario:
        return self.scenarios[i]

    @property
    def labels(self) -> tuple[str, ...]:
        """Every scenario's label, in order; a view builds no scenario."""
        if isinstance(self.scenarios, ScenarioView):
            return self.scenarios.labels
        return tuple(s.label for s in self.scenarios)


def tenor_buckets(
    edges: Sequence[float] = DEFAULT_TENOR_EDGES,
) -> list[tuple[float, float]]:
    """Half-open buckets ``(lo, hi]`` from a strictly increasing edge list."""
    e = list(edges)
    if len(e) < 2:
        raise ValidationError("need at least 2 bucket edges")
    if not all(math.isfinite(x) for x in e):
        raise ValidationError(f"bucket edges must be finite: {e}")
    if not all(b > a for a, b in zip(e, e[1:])):
        raise ValidationError(f"bucket edges must be strictly increasing: {e}")
    return list(zip(e[:-1], e[1:]))


def _bp_label(bps: float) -> str:
    return f"{bps:+g}bp"


def parallel_shocks(
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    *,
    hazard_bumps_bps: Sequence[float] = (-50.0, -10.0, 10.0, 50.0, 200.0),
    rate_bumps_bps: Sequence[float] = (-100.0, -25.0, 25.0, 100.0),
) -> ScenarioSet:
    """Whole-curve level shocks, one scenario per bump.

    Parameters
    ----------
    yield_curve / hazard_curve:
        Base market state.
    hazard_bumps_bps:
        Parallel hazard-intensity bumps in basis points (floored so no
        intensity goes negative).
    rate_bumps_bps:
        Parallel zero-rate bumps in basis points.
    """
    scenarios = [
        Scenario(
            label=f"hazard{_bp_label(b)}",
            yield_curve=yield_curve,
            hazard_curve=parallel_bump(
                hazard_curve, b * ONE_BP, floor=HAZARD_FLOOR
            ),
        )
        for b in hazard_bumps_bps
    ] + [
        Scenario(
            label=f"rates{_bp_label(b)}",
            yield_curve=parallel_bump(yield_curve, b * ONE_BP),
            hazard_curve=hazard_curve,
        )
        for b in rate_bumps_bps
    ]
    if not scenarios:
        raise ValidationError("parallel_shocks needs at least one bump")
    return ScenarioSet(
        name="parallel",
        base_yield=yield_curve,
        base_hazard=hazard_curve,
        scenarios=tuple(scenarios),
    )


def bucketed_shocks(
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    *,
    curve: str = "hazard",
    bump: float = ONE_BP,
    edges: Sequence[float] = DEFAULT_TENOR_EDGES,
) -> ScenarioSet:
    """Tenor-by-tenor bumps: one scenario per bucket of the chosen curve.

    Parameters
    ----------
    yield_curve / hazard_curve:
        Base market state.
    curve:
        ``"hazard"`` or ``"yield"`` — which curve the buckets bump.
    bump:
        Additive shift inside each bucket (decimal, not bps).
    edges:
        Bucket edges; the buckets tile ``(edges[0], edges[-1]]``.
    """
    if curve not in ("hazard", "yield"):
        raise ValidationError(f"curve must be 'hazard' or 'yield', got {curve!r}")
    scenarios = []
    for lo, hi in tenor_buckets(edges):
        yc, hc = yield_curve, hazard_curve
        if curve == "hazard":
            hc = bucket_bump(hazard_curve, lo, hi, bump, floor=HAZARD_FLOOR)
        else:
            yc = bucket_bump(yield_curve, lo, hi, bump)
        label = f"{curve}[{lo:g},{hi:g}]{_bp_label(bump / ONE_BP)}"
        scenarios.append(Scenario(label=label, yield_curve=yc, hazard_curve=hc))
    return ScenarioSet(
        name=f"bucketed:{curve}",
        base_yield=yield_curve,
        base_hazard=hazard_curve,
        scenarios=tuple(scenarios),
    )


def recovery_shocks(
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    *,
    shifts: Sequence[float] = (-0.10, -0.05, 0.05, 0.10),
) -> ScenarioSet:
    """Recovery-rate shifts applied to every contract, curves unchanged."""
    if not shifts:
        raise ValidationError("recovery_shocks needs at least one shift")
    return ScenarioSet(
        name="recovery",
        base_yield=yield_curve,
        base_hazard=hazard_curve,
        scenarios=tuple(
            Scenario(
                label=f"recovery{s:+.0%}",
                yield_curve=yield_curve,
                hazard_curve=hazard_curve,
                recovery_shift=s,
            )
            for s in shifts
        ),
    )


def historical_replay(
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    history: CurveHistory,
) -> ScenarioSet:
    """Replay historical day-over-day curve moves onto today's curves.

    For each consecutive pair of days the move ``curve[d+1] - curve[d]`` is
    evaluated *on the base curves' knot grid* (so histories on any grid
    replay cleanly) and added to the base values — the standard historical-
    simulation construction.

    Parameters
    ----------
    yield_curve / hazard_curve:
        Today's market state.
    history:
        The observed (here: synthetic) curve history to replay.
    """
    days_y = np.array([c.interpolate(yield_curve.times) for c in history.yields])
    days_h = np.array([c.interpolate(hazard_curve.times) for c in history.hazards])
    labels = [f"replay-day{d + 1}" for d in range(history.n_moves)]
    return _tensor_set(
        "historical", yield_curve, hazard_curve,
        yield_curve.values + (days_y[1:] - days_y[:-1]),
        hazard_curve.values + (days_h[1:] - days_h[:-1]),
        np.zeros(len(labels)), labels,
    )


def _tensor_set(
    name: str, yield_curve: YieldCurve, hazard_curve: HazardCurve,
    yc_rows: np.ndarray, hz_rows: np.ndarray, shifts: np.ndarray,
    labels: Sequence[str],
) -> ScenarioSet:
    """A set viewing the rows a generator wrote; hazards floored in place."""
    np.maximum(hz_rows, HAZARD_FLOOR, out=hz_rows)
    for arr in (yc_rows, hz_rows, shifts):
        arr.flags.writeable = False  # generator-owned: freeze copy-free
    tensor = ScenarioTensor(
        yield_times=yield_curve.times, yield_values=yc_rows,
        hazard_times=hazard_curve.times, hazard_values=hz_rows,
        recovery_shifts=shifts,
    )
    return ScenarioSet(
        name, yield_curve, hazard_curve, ScenarioView(tensor, labels)
    )


@dataclass(frozen=True)
class Regime:
    """One component of a market-regime mixture.

    Attributes
    ----------
    name:
        Regime label, appended to each scenario drawn under it.
    weight:
        Mixture probability (normalised across the regime tuple).
    hazard_scale / rate_scale:
        Volatility multipliers applied to the bucket shocks.
    hazard_drift_bps:
        Deterministic hazard drift (bps) — stressed regimes widen credit.
    """

    name: str
    weight: float
    hazard_scale: float = 1.0
    rate_scale: float = 1.0
    hazard_drift_bps: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("regime name must be non-empty")
        check_positive_finite(self.weight, "weight")
        check_positive_finite(self.hazard_scale, "hazard_scale")
        check_positive_finite(self.rate_scale, "rate_scale")
        check_range(self.hazard_drift_bps, "hazard_drift_bps", "(-inf, inf)")


#: A standard two-regime mixture: mostly calm, occasionally stressed with
#: triple credit volatility and a widening drift.
CALM_STRESSED_REGIMES: tuple[Regime, ...] = (
    Regime(name="calm", weight=0.85),
    Regime(
        name="stressed",
        weight=0.15,
        hazard_scale=3.0,
        rate_scale=1.5,
        hazard_drift_bps=15.0,
    ),
)


def _shocked_rows(
    curve: YieldCurve | HazardCurve, shocks: np.ndarray, edges: Sequence[float]
) -> np.ndarray:
    """``curve``'s values plus each row's shock for the ``(lo, hi]``
    bucket of every knot, written in place into C-ordered rows
    (``shocks[:, idx]`` comes back column-major, which slows the
    kernel's row gathers fourfold)."""
    upper = np.asarray(edges[1:], dtype=np.float64)
    idx = np.minimum(np.searchsorted(upper, curve.times), len(upper) - 1)
    rows = shocks.take(idx, axis=1)
    return np.add(curve.values, rows, out=rows)


def monte_carlo(
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    n_scenarios: int,
    *,
    seed: int = 7,
    edges: Sequence[float] = DEFAULT_TENOR_EDGES,
    hazard_vol_bps: float = 25.0,
    rate_vol_bps: float = 10.0,
    tenor_correlation: float = 0.9,
    credit_rates_correlation: float = -0.25,
    recovery_vol: float = 0.0,
    regimes: Sequence[Regime] | None = None,
) -> ScenarioSet:
    """Seeded correlated Monte Carlo scenario generation.

    One Gaussian factor per tenor bucket and curve (so ``2 * n_buckets``
    factors in total).  Within each curve, bucket factors follow the
    Kac-Murdock-Szego structure ``corr(i, j) = tenor_correlation^|i-j|``;
    across the two curves every pair is scaled by
    ``credit_rates_correlation``.  The joint matrix is the Kronecker
    product of the 2x2 cross-curve block with the KMS matrix — positive
    definite by construction — and is factored once by Cholesky.

    With ``regimes`` given, each scenario first draws a regime from the
    mixture (volatility scaling plus credit drift), which produces the
    fat-tailed, multi-modal scenario clouds that mixture-model clustering
    papers summarise by central scenarios.

    Parameters
    ----------
    yield_curve / hazard_curve:
        Base market state.
    n_scenarios:
        Scenarios to draw.
    seed:
        Deterministic generator seed.
    edges:
        Tenor-bucket edges shared by both curves.
    hazard_vol_bps / rate_vol_bps:
        Per-bucket shock standard deviations in basis points.
    tenor_correlation:
        Neighbouring-bucket correlation decay base, in ``[0, 1)``.
    credit_rates_correlation:
        Cross-curve correlation, in ``(-1, 1)``.
    recovery_vol:
        Standard deviation of an independent recovery-rate shift per
        scenario (0 disables recovery shocks).
    regimes:
        Optional regime mixture, e.g. :data:`CALM_STRESSED_REGIMES`.
    """
    check_count(n_scenarios, "n_scenarios")
    check_range(tenor_correlation, "tenor_correlation", "[0, 1)")
    check_range(credit_rates_correlation, "credit_rates_correlation", "(-1, 1)")
    for name, vol in (
        ("hazard_vol_bps", hazard_vol_bps),
        ("rate_vol_bps", rate_vol_bps),
        ("recovery_vol", recovery_vol),
    ):
        check_non_negative_finite(vol, name)
    buckets = tenor_buckets(edges)
    n_b = len(buckets)

    # Joint correlation: cross-curve 2x2 block (x) KMS tenor block.
    kms = tenor_correlation ** np.abs(
        np.subtract.outer(np.arange(n_b), np.arange(n_b))
    )
    cross = np.array(
        [[1.0, credit_rates_correlation], [credit_rates_correlation, 1.0]]
    )
    chol = np.linalg.cholesky(np.kron(cross, kms))

    gen = np.random.default_rng(seed)
    if regimes:
        weights = np.asarray([r.weight for r in regimes], dtype=np.float64)
        weights = weights / weights.sum()
        picks = gen.choice(len(regimes), size=n_scenarios, p=weights)

    # One call draws the whole set in the stream order of a scenario at
    # a time: each row holds its 2 * n_b bucket factors, then its
    # recovery draw (``normal(0, s)`` is ``0 + s * x`` for the stream's
    # next standard normal ``x``).
    draws = gen.standard_normal((n_scenarios, 2 * n_b + (recovery_vol > 0)))
    # chol @ z row by row: a batched matmul rounds differently.
    z = np.array([chol @ row for row in draws[:, : 2 * n_b]])
    hz_shocks = z[:, :n_b] * hazard_vol_bps * ONE_BP
    yc_shocks = z[:, n_b:] * rate_vol_bps * ONE_BP
    labels = [f"mc-{s}" for s in range(n_scenarios)]
    if regimes:
        scale, rate_scale, drift = (
            np.array([getattr(r, a) for r in regimes], dtype=np.float64)[picks, None]
            for a in ("hazard_scale", "rate_scale", "hazard_drift_bps")
        )
        hz_shocks = hz_shocks * scale + drift * ONE_BP
        yc_shocks = yc_shocks * rate_scale
        labels = [f"{lbl}:{regimes[p].name}" for lbl, p in zip(labels, picks)]
    shifts = np.zeros(n_scenarios)
    if recovery_vol > 0:
        shifts = np.clip(0.0 + recovery_vol * draws[:, -1], -0.5, 0.5)

    return _tensor_set(
        "mc-mixture" if regimes else "mc", yield_curve, hazard_curve,
        _shocked_rows(yield_curve, yc_shocks, edges),
        _shocked_rows(hazard_curve, hz_shocks, edges), shifts, labels,
    )
