"""Serving workload construction: market tapes and request streams.

Arrival *times* come from :mod:`repro.workloads.traffic` (Poisson,
bursty, diurnal); this module attaches the payloads: a request mix of
single-name quotes, whole-book revals and mini VaR refreshes, each
referencing rows of a shared market tape, with per-kind deadlines and
priorities (live quotes are tightest and most urgent, VaR refreshes the
most relaxed).
"""

from __future__ import annotations

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.validation import (
    check_bounds,
    check_count,
    check_non_negative_finite,
    check_positive_finite,
    check_range,
)
from repro.errors import ValidationError
from repro.risk.scenarios import monte_carlo
from repro.risk.tensor import ScenarioTensor
from repro.serving.request import PricingRequest
from repro.workloads.traffic import make_arrivals

__all__ = [
    "make_market_tape",
    "make_request_stream",
    "make_risk_refresh_stream",
]

#: Per-kind coalescer priority: quotes jump the queue, VaR waits.
KIND_PRIORITY = {"quote": 2, "reval": 1, "var": 0}


def make_market_tape(
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    n_states: int,
    *,
    seed: int = 101,
) -> ScenarioTensor:
    """A dense tape of live market states around a base state.

    The states are correlated Monte Carlo draws
    (:func:`~repro.risk.scenarios.monte_carlo`): the tape is the
    :class:`~repro.risk.tensor.ScenarioTensor` the generator writes and
    the batched kernel consumes, with no scenario objects built — the
    serving analogue of a market-data cache fed by tick updates.

    Parameters
    ----------
    yield_curve / hazard_curve:
        Base market state.
    n_states:
        Tape length (requests reference rows ``0 .. n_states - 1``).
    seed:
        Deterministic generator seed.
    """
    check_count(n_states, "n_states")
    return monte_carlo(yield_curve, hazard_curve, n_states, seed=seed).tensor


def stream_spec(mix, var_rows, quote_deadline_s, reval_deadline_s, var_deadline_s):
    """Check a request stream's payload parameters: the ``(quote, reval,
    var)`` mix, the VaR width and the per-kind ``(lo, hi)`` relative
    deadlines.  Returns the mix as probabilities and the deadline ranges
    by kind."""
    probs = np.asarray(mix, dtype=np.float64)
    if probs.shape != (3,) or not np.all(probs >= 0) or not np.isclose(probs.sum(), 1.0):
        raise ValidationError(
            f"mix must be three non-negative probabilities summing to 1, got {mix}"
        )
    check_count(var_rows, "var_rows")
    deadlines = {
        "quote": quote_deadline_s,
        "reval": reval_deadline_s,
        "var": var_deadline_s,
    }
    for kind, bounds in deadlines.items():
        check_bounds(bounds, f"{kind}_deadline_s")
    return probs, deadlines


def make_request_stream(
    n_requests: int,
    *,
    rate_hz: float,
    n_states: int,
    n_positions: int,
    traffic: str = "poisson",
    mix: tuple[float, float, float] = (0.90, 0.08, 0.02),
    var_rows: int = 8,
    quote_deadline_s: tuple[float, float] = (5e-3, 2e-2),
    reval_deadline_s: tuple[float, float] = (2e-2, 5e-2),
    var_deadline_s: tuple[float, float] = (5e-2, 2e-1),
    seed: int = 17,
) -> list[PricingRequest]:
    """A seeded request trace over a market tape.

    Parameters
    ----------
    n_requests:
        Trace length.
    rate_hz:
        Offered arrival rate.
    n_states:
        Market-tape length requests sample rows from.
    n_positions:
        Book size (quote requests sample an option index).
    traffic:
        Arrival-process registry key (``poisson``, ``bursty``,
        ``diurnal``).
    mix:
        ``(quote, reval, var)`` probabilities; must sum to 1.
    var_rows:
        Market states per VaR refresh (capped at the tape length).
    quote_deadline_s / reval_deadline_s / var_deadline_s:
        Per-kind ``(lo, hi)`` relative-deadline ranges, sampled
        uniformly.
    seed:
        Deterministic seed for both arrival times and payloads.

    Returns
    -------
    list[PricingRequest]
        Requests in arrival order, ids ``0 .. n_requests - 1``.
    """
    check_count(n_requests, "n_requests")
    check_count(n_states, "n_states")
    check_count(n_positions, "n_positions")
    probs, deadline_range = stream_spec(
        mix, var_rows, quote_deadline_s, reval_deadline_s, var_deadline_s
    )

    times = make_arrivals(traffic, n_requests, rate_hz, seed=seed)
    gen = np.random.default_rng(seed + 1)
    kinds = gen.choice(("quote", "reval", "var"), size=n_requests, p=probs)
    k_var = min(var_rows, n_states)
    requests: list[PricingRequest] = []
    for i, (t, kind) in enumerate(zip(times, kinds)):
        lo, hi = deadline_range[kind]
        deadline = float(t + gen.uniform(lo, hi))
        if kind == "var":
            rows = tuple(
                int(r) for r in np.sort(gen.choice(n_states, k_var, replace=False))
            )
        else:
            rows = (int(gen.integers(n_states)),)
        requests.append(
            PricingRequest(
                i, str(kind), float(t), deadline, rows,
                int(gen.integers(n_positions)) if kind == "quote" else None,
                KIND_PRIORITY[str(kind)],
            )
        )
    return requests


def make_risk_refresh_stream(
    n_refreshes: int,
    *,
    period_s: float,
    n_states: int,
    var_rows: int = 16,
    start_s: float | None = None,
    deadline_fraction: float = 0.8,
    request_id_base: int = 0,
    seed: int = 17,
) -> list[PricingRequest]:
    """A periodic stream of VaR-refresh requests.

    The risk desk's heartbeat on a shared cluster: one ``var`` request
    every ``period_s``, each re-measuring VaR over a fresh sample of
    market-tape rows.  A refresh is stale once its successor lands, so
    its deadline is a fraction of the period — contrast the per-request
    uniform deadlines of :func:`make_request_stream`.

    Merge the stream with a quote trace (ids offset via
    ``request_id_base``) and replay both through one
    :class:`~repro.serving.engine.QuoteServer` to study how periodic
    batch work rides alongside latency-sensitive traffic — the
    ``repro-cds simulate`` scenario.

    Parameters
    ----------
    n_refreshes:
        Stream length.
    period_s:
        Seconds between refreshes.
    n_states:
        Market-tape length rows are sampled from.
    var_rows:
        Market states per refresh (capped at the tape length).
    start_s:
        First refresh instant (default: one period in).
    deadline_fraction:
        Relative deadline as a fraction of the period, in ``(0, 1]``.
    request_id_base:
        Id of the first refresh (offset past the quote trace when
        merging streams — ids must be unique within one replay).
    seed:
        Deterministic seed for the row samples.

    Returns
    -------
    list[PricingRequest]
        Refreshes in arrival order, ids ``request_id_base ..
        request_id_base + n_refreshes - 1``.
    """
    check_count(n_refreshes, "n_refreshes")
    check_positive_finite(period_s, "period_s")
    check_count(n_states, "n_states")
    check_count(var_rows, "var_rows")
    check_range(deadline_fraction, "deadline_fraction", "(0, 1]")
    start = start_s if start_s is not None else period_s
    check_non_negative_finite(start, "start_s")
    gen = np.random.default_rng(seed)
    k = min(var_rows, n_states)
    relative_deadline = deadline_fraction * period_s
    requests: list[PricingRequest] = []
    for i in range(n_refreshes):
        t = start + i * period_s
        rows = tuple(
            int(r) for r in np.sort(gen.choice(n_states, k, replace=False))
        )
        requests.append(
            PricingRequest(
                request_id=request_id_base + i,
                kind="var",
                arrival_s=t,
                deadline_s=t + relative_deadline,
                rows=rows,
                option_index=None,
                priority=KIND_PRIORITY["var"],
            )
        )
    return requests
