"""Arrival processes for the live serving layer.

The host-side batching study of :mod:`repro.cluster.batching` replays a
handful of *bursts*; a quote-serving front end sees sustained per-request
traffic instead.  This module generates that traffic as seeded arrival
*time* vectors — the request payloads are attached elsewhere
(:mod:`repro.serving.workload`) — in three canonical shapes:

``poisson``
    Memoryless constant-rate arrivals (exponential gaps): the baseline of
    every queueing analysis, and the calm component of the other two.
``bursty``
    A two-state Markov-modulated Poisson process: the stream alternates
    between a calm state and a burst state whose rate is a multiple of
    the calm one, with exponential dwell times.  The long-run mean rate
    equals the requested rate; the inter-arrival coefficient of variation
    exceeds 1 (the hallmark of bursty traffic), which is what stresses a
    size-or-linger coalescer.
``diurnal``
    A sinusoid-modulated inhomogeneous Poisson process (generated by
    thinning): slow rate swings around the mean, modelling the
    session-scale tide of quote traffic.

All generators are deterministic in their seed and return strictly
ordered times in seconds.
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import (
    check_count,
    check_non_negative_finite,
    check_positive_finite,
    check_range,
)
from repro.errors import ValidationError

__all__ = [
    "poisson_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "make_arrivals",
    "zipf_weights",
    "ChoiceSampler",
    "multi_tenant_arrivals",
    "TRAFFIC_PROCESSES",
]

#: Seed offset decorrelating the tenant-label draw from the arrival
#: times that share the caller's seed.
_TENANT_SEED_OFFSET = 6151


def _check_common(n_arrivals: int, rate_hz: float, start_s: float) -> None:
    check_count(n_arrivals, "n_arrivals")
    check_positive_finite(rate_hz, "rate_hz")
    check_non_negative_finite(start_s, "start_s")


def poisson_arrivals(
    n_arrivals: int,
    rate_hz: float,
    *,
    start_s: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Constant-rate Poisson arrivals.

    Parameters
    ----------
    n_arrivals:
        Arrival count.
    rate_hz:
        Mean arrival rate (requests per second).
    start_s:
        Time origin; the first gap is drawn from it.
    seed:
        Deterministic generator seed.

    Returns
    -------
    np.ndarray
        ``(n_arrivals,)`` strictly increasing times in seconds.
    """
    _check_common(n_arrivals, rate_hz, start_s)
    gen = np.random.default_rng(seed)
    gaps = gen.exponential(1.0 / rate_hz, size=n_arrivals)
    return start_s + np.cumsum(gaps)


def bursty_arrivals(
    n_arrivals: int,
    rate_hz: float,
    *,
    burst_factor: float = 6.0,
    burst_fraction: float = 0.15,
    burst_dwell_s: float | None = None,
    start_s: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Two-state Markov-modulated Poisson arrivals (calm / burst).

    The calm and burst rates are solved so the long-run mean rate equals
    ``rate_hz`` given the stationary time fractions: the process spends
    ``burst_fraction`` of its time in the burst state, whose rate is
    ``burst_factor`` times the calm rate.

    Parameters
    ----------
    n_arrivals:
        Arrival count.
    rate_hz:
        Long-run mean arrival rate.
    burst_factor:
        Burst-state rate as a multiple of the calm-state rate (> 1).
    burst_fraction:
        Stationary fraction of time spent bursting, in (0, 1).
    burst_dwell_s:
        Mean burst duration; ``None`` picks a burst long enough to carry
        ~30 arrivals at the burst rate, so bursts are visible at any
        ``rate_hz``.  The calm dwell follows from ``burst_fraction``.
    start_s:
        Time origin.
    seed:
        Deterministic generator seed.

    Returns
    -------
    np.ndarray
        ``(n_arrivals,)`` strictly increasing times in seconds.
    """
    _check_common(n_arrivals, rate_hz, start_s)
    check_range(burst_factor, "burst_factor", "(1, inf)")
    check_range(burst_fraction, "burst_fraction", "(0, 1)")
    calm_rate = rate_hz / ((1.0 - burst_fraction) + burst_factor * burst_fraction)
    burst_rate = burst_factor * calm_rate
    if burst_dwell_s is None:
        burst_dwell_s = 30.0 / burst_rate
    check_positive_finite(burst_dwell_s, "burst_dwell_s")
    calm_dwell_s = burst_dwell_s * (1.0 - burst_fraction) / burst_fraction

    gen = np.random.default_rng(seed)
    times = np.empty(n_arrivals, dtype=np.float64)
    t = start_s
    in_burst = False
    state_end = t + gen.exponential(calm_dwell_s)
    k = 0
    while k < n_arrivals:
        rate = burst_rate if in_burst else calm_rate
        gap = gen.exponential(1.0 / rate)
        if t + gap >= state_end:
            # Memoryless gaps: redrawing from the state boundary is
            # distributionally identical to carrying the residual over.
            t = state_end
            in_burst = not in_burst
            state_end = t + gen.exponential(
                burst_dwell_s if in_burst else calm_dwell_s
            )
            continue
        t += gap
        times[k] = t
        k += 1
    return times


def diurnal_arrivals(
    n_arrivals: int,
    rate_hz: float,
    *,
    period_s: float | None = None,
    amplitude: float = 0.6,
    start_s: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Sinusoid-modulated Poisson arrivals via thinning.

    The instantaneous rate is
    ``rate_hz * (1 + amplitude * sin(2 pi t / period_s))`` — candidate
    arrivals are drawn at the peak rate and accepted with probability
    proportional to the instantaneous one (Lewis-Shedler thinning).

    Parameters
    ----------
    n_arrivals:
        Arrival count.
    rate_hz:
        Mean arrival rate over a full period.
    period_s:
        Modulation period; ``None`` spans the trace with ~2 periods.
    amplitude:
        Modulation depth in [0, 1): peak rate is ``(1 + amplitude)`` and
        trough ``(1 - amplitude)`` times the mean.
    start_s:
        Time origin (phase 0 of the sinusoid).
    seed:
        Deterministic generator seed.

    Returns
    -------
    np.ndarray
        ``(n_arrivals,)`` strictly increasing times in seconds.
    """
    _check_common(n_arrivals, rate_hz, start_s)
    check_range(amplitude, "amplitude", "[0, 1)")
    if period_s is None:
        period_s = n_arrivals / (2.0 * rate_hz)
    check_positive_finite(period_s, "period_s")
    gen = np.random.default_rng(seed)
    peak = rate_hz * (1.0 + amplitude)
    times = np.empty(n_arrivals, dtype=np.float64)
    t = start_s
    omega = 2.0 * np.pi / period_s
    k = 0
    while k < n_arrivals:
        t += gen.exponential(1.0 / peak)
        lam = rate_hz * (1.0 + amplitude * np.sin(omega * (t - start_s)))
        if gen.random() * peak <= lam:
            times[k] = t
            k += 1
    return times


def zipf_weights(n_items: int, exponent: float = 1.1) -> np.ndarray:
    """Normalised Zipf popularity over ``n_items`` ranked items.

    Item ``k`` (0-based rank) gets probability proportional to
    ``(k + 1) ** -exponent`` — the canonical power-law popularity of web
    and market-data traffic (a few on-the-run names soak up most of the
    quote flow).  ``exponent=0`` degenerates to uniform.

    Parameters
    ----------
    n_items:
        Catalogue size (>= 1).
    exponent:
        Skew; larger concentrates more mass on the top ranks (>= 0).

    Returns
    -------
    np.ndarray
        ``(n_items,)`` probabilities summing to 1.
    """
    check_count(n_items, "n_items")
    check_non_negative_finite(exponent, "exponent")
    weights = np.arange(1, n_items + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


class ChoiceSampler:
    """Vectorised draws of ``Generator.choice(n, p=p)``, draw for draw.

    ``choice`` validates ``p`` and rebuilds its CDF on every call, which
    dominates a per-request draw.  The sampler validates once and builds
    the CDF once, exactly as ``choice`` does (the cumulative sum divided
    by its last element); :meth:`pick` then maps uniform doubles to
    indices with ``searchsorted(..., side="right")``, the rule ``choice``
    applies to the one ``gen.random()`` double it draws per sample.  So
    ``pick(gen.random(m))`` consumes the same stream and returns the same
    indices as ``m`` calls of ``gen.choice(len(p), p=p)``, and a caller
    can draw the doubles of many samples, interleaved with other doubles,
    in one call; the test suite pins that equality.

    Parameters
    ----------
    p:
        Category probabilities: a non-empty 1-D vector of finite,
        non-negative values summing to 1 (``choice``'s tolerance).
    """

    __slots__ = ("_cdf",)

    #: ``Generator.choice``'s tolerance on ``sum(p) == 1``.
    SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))

    def __init__(self, p) -> None:
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError("p must be a non-empty 1-D vector")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValidationError("p must be finite and non-negative")
        total = float(p.sum())
        if abs(total - 1.0) > self.SUM_TOLERANCE:
            raise ValidationError(f"p must sum to 1, got {total!r}")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def pick(self, u) -> np.ndarray:
        """The category index of each uniform double in ``u``."""
        return self._cdf.searchsorted(u, side="right")


def multi_tenant_arrivals(
    n_arrivals: int,
    rate_hz: float,
    tenant_weights,
    *,
    traffic: str = "poisson",
    seed: int = 0,
    **kwargs,
) -> tuple[np.ndarray, np.ndarray]:
    """One merged arrival stream shared by several tenants.

    The aggregate arrival *times* come from any registered process at the
    total offered rate; each arrival is then labelled with a tenant drawn
    from the (normalised) ``tenant_weights`` — the superposition view of
    multi-tenant traffic, where the gateway sees one interleaved stream.

    Parameters
    ----------
    n_arrivals:
        Total arrival count across tenants.
    rate_hz:
        Aggregate offered rate.
    tenant_weights:
        Per-tenant share of the offered load: finite and non-negative,
        with a finite, positive sum; normalised internally.
    traffic:
        Arrival-process registry key for the merged stream.
    seed:
        Deterministic seed; the tenant labels use a decorrelated offset
        of it so times and labels are independent draws.
    kwargs:
        Extra shape parameters of the chosen arrival process.

    Returns
    -------
    tuple[np.ndarray, np.ndarray]
        ``(times, tenant_index)`` — strictly increasing times and the
        owning tenant's index per arrival.
    """
    weights = np.asarray(tenant_weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValidationError("tenant_weights must be a non-empty 1-D vector")
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        total = weights.sum()
    # Non-negative entries with a finite sum are each finite too.
    if not (np.all(weights >= 0) and 0 < total < np.inf):
        raise ValidationError(
            "tenant_weights must be finite and non-negative with a finite, "
            f"positive sum, got {tenant_weights!r}"
        )
    times = make_arrivals(traffic, n_arrivals, rate_hz, seed=seed, **kwargs)
    gen = np.random.default_rng(seed + _TENANT_SEED_OFFSET)
    tenants = gen.choice(weights.size, size=n_arrivals, p=weights / total)
    return times, tenants


#: Arrival-process registry keyed by traffic name (CLI ``--traffic``).
TRAFFIC_PROCESSES = {
    "poisson": poisson_arrivals,
    "bursty": bursty_arrivals,
    "diurnal": diurnal_arrivals,
}


def make_arrivals(
    name: str,
    n_arrivals: int,
    rate_hz: float,
    *,
    seed: int = 0,
    **kwargs,
) -> np.ndarray:
    """Generate arrival times from the :data:`TRAFFIC_PROCESSES` registry.

    Parameters
    ----------
    name:
        Registry key (``poisson``, ``bursty``, ``diurnal``).
    n_arrivals / rate_hz / seed:
        Forwarded to the generator.
    kwargs:
        Extra shape parameters of the chosen process.

    Raises
    ------
    ValidationError
        For an unknown traffic name.
    """
    try:
        maker = TRAFFIC_PROCESSES[name]
    except KeyError:
        raise ValidationError(
            f"unknown traffic process {name!r}; "
            f"choose from {sorted(TRAFFIC_PROCESSES)}"
        ) from None
    return maker(n_arrivals, rate_hz, seed=seed, **kwargs)
