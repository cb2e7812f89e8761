"""Seeded synthetic workload generation.

All generators take an explicit seed (or a :class:`numpy.random.Generator`)
so every test, example and benchmark is reproducible.  Curves are generated
with realistic shapes: upward-sloping yield curves built from a Nelson-
Siegel-like parametrisation plus small noise, and hazard curves with gently
increasing intensities (credit risk typically grows with horizon).
"""

from __future__ import annotations

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.core.validation import check_bounds, check_count
from repro.errors import ValidationError

__all__ = [
    "make_yield_curve",
    "make_hazard_curve",
    "make_option_portfolio",
    "WorkloadGenerator",
]


def _rng(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def make_yield_curve(
    n_points: int = 1024,
    *,
    span_years: float = 10.0,
    base_rate: float = 0.015,
    slope: float = 0.012,
    noise: float = 5e-4,
    seed: int | np.random.Generator = 0,
) -> YieldCurve:
    """An upward-sloping zero curve with ``n_points`` knots.

    ``rate(t) = base + slope * (1 - exp(-t / 2.5)) + noise`` — a Nelson-
    Siegel-style level/slope shape, clipped to stay positive.
    """
    check_count(n_points, "n_points", 2)
    gen = _rng(seed)
    times = np.linspace(span_years / n_points, span_years, n_points)
    rates = base_rate + slope * (1.0 - np.exp(-times / 2.5))
    rates = rates + gen.normal(0.0, noise, size=n_points)
    rates = np.clip(rates, 1e-5, None)
    return YieldCurve(times, rates)


def make_hazard_curve(
    n_points: int = 1024,
    *,
    span_years: float = 10.0,
    base_hazard: float = 0.008,
    slope: float = 0.010,
    noise: float = 3e-4,
    seed: int | np.random.Generator = 1,
) -> HazardCurve:
    """A gently increasing hazard curve with ``n_points`` knots."""
    check_count(n_points, "n_points", 2)
    gen = _rng(seed)
    times = np.linspace(span_years / n_points, span_years, n_points)
    hazards = base_hazard + slope * (times / span_years)
    hazards = hazards + gen.normal(0.0, noise, size=n_points)
    hazards = np.clip(hazards, 1e-6, None)
    return HazardCurve(times, hazards)


def make_option_portfolio(
    n_options: int,
    *,
    maturity_range: tuple[float, float] = (1.0, 8.0),
    frequencies: tuple[int, ...] = (2, 4, 12),
    recovery_range: tuple[float, float] = (0.2, 0.6),
    seed: int | np.random.Generator = 2,
) -> list[CDSOption]:
    """A random portfolio of ``n_options`` CDS contracts."""
    check_count(n_options, "n_options")
    check_bounds(maturity_range, "maturity_range")
    lo, hi = maturity_range
    rlo, rhi = recovery_range
    if not 0.0 <= rlo <= rhi < 1.0:
        raise ValidationError(f"bad recovery_range {recovery_range}")
    gen = _rng(seed)
    maturities = gen.uniform(lo, hi, size=n_options)
    freqs = gen.choice(list(frequencies), size=n_options)
    recoveries = gen.uniform(rlo, rhi, size=n_options)
    return [
        CDSOption(
            maturity=float(m), frequency=int(f), recovery_rate=float(r)
        )
        for m, f, r in zip(maturities, freqs, recoveries)
    ]


class WorkloadGenerator:
    """Convenience bundle: one seeded source for curves and portfolios.

    Examples
    --------
    >>> wg = WorkloadGenerator(seed=42)
    >>> yc = wg.yield_curve(n_points=64)
    >>> opts = wg.portfolio(10)
    >>> len(opts)
    10
    """

    def __init__(self, seed: int = 0) -> None:
        self._root = np.random.default_rng(seed)

    def _child(self) -> np.random.Generator:
        return np.random.default_rng(self._root.integers(0, 2**63 - 1))

    def yield_curve(self, n_points: int = 1024, **kwargs) -> YieldCurve:
        """Seeded :func:`make_yield_curve`."""
        kwargs.setdefault("seed", self._child())
        return make_yield_curve(n_points, **kwargs)

    def hazard_curve(self, n_points: int = 1024, **kwargs) -> HazardCurve:
        """Seeded :func:`make_hazard_curve`."""
        kwargs.setdefault("seed", self._child())
        return make_hazard_curve(n_points, **kwargs)

    def portfolio(self, n_options: int, **kwargs) -> list[CDSOption]:
        """Seeded :func:`make_option_portfolio`."""
        kwargs.setdefault("seed", self._child())
        return make_option_portfolio(n_options, **kwargs)
