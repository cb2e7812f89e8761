"""Gateway workload construction: multi-tenant Zipf streams and ticks.

Two generators on top of :mod:`repro.workloads.traffic`:

* :func:`make_tenant_stream` — the multi-tenant analogue of
  :func:`~repro.serving.workload.make_request_stream`.  One merged
  arrival stream is shared by the tenant mix
  (:func:`~repro.workloads.traffic.multi_tenant_arrivals`), and quote
  payloads sample their market row and contract from **Zipf** popularity
  (:func:`~repro.workloads.traffic.zipf_weights`) instead of uniformly —
  a few on-the-run names soak up most of the flow, which is exactly what
  makes the gateway's quote cache pay.  Deadlines stretch by each
  tenant's deadline class.
* :func:`make_tick_stream` — a seeded stream of market-tape ticks
  ``(time, row)`` driving the cache's tick invalidation.

Both are deterministic in their seed.
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import check_count, check_index
from repro.errors import ValidationError
from repro.serving.request import PricingRequest
from repro.serving.workload import KIND_PRIORITY
from repro.workloads.traffic import (
    ChoiceSampler,
    multi_tenant_arrivals,
    poisson_arrivals,
    zipf_weights,
)

from repro.gateway.tenancy import DEFAULT_TENANTS, TenantProfile

__all__ = ["make_tenant_stream", "make_tick_stream"]

#: Seed offset decorrelating the tick stream from the request stream.
TICK_SEED_OFFSET = 7919


def make_tenant_stream(
    n_requests: int,
    *,
    rate_hz: float,
    n_states: int,
    n_positions: int,
    tenants: tuple[TenantProfile, ...] = DEFAULT_TENANTS,
    traffic: str = "poisson",
    mix: tuple[float, float, float] = (0.94, 0.05, 0.01),
    row_exponent: float = 1.2,
    option_exponent: float = 1.2,
    var_rows: int = 8,
    quote_deadline_s: tuple[float, float] = (5e-3, 2e-2),
    reval_deadline_s: tuple[float, float] = (2e-2, 5e-2),
    var_deadline_s: tuple[float, float] = (5e-2, 2e-1),
    seed: int = 17,
) -> list[PricingRequest]:
    """A seeded multi-tenant request trace with Zipf-popular quotes.

    Parameters
    ----------
    n_requests / rate_hz:
        Aggregate trace length and offered rate across tenants.
    n_states / n_positions:
        Market-tape length and book size.
    tenants:
        Tenant profiles; arrival shares come from each profile's
        ``share`` and deadlines stretch by its ``deadline_scale``.
    traffic:
        Arrival-process registry key for the merged stream.
    mix:
        ``(quote, reval, var)`` probabilities; must sum to 1.  The
        default is quote-heavier than the single-server stream — the
        gateway fronts retail quote flow.
    row_exponent / option_exponent:
        Zipf skew of the quote market-row and contract popularity
        (0 = uniform).  Reval/var rows stay uniform — book-level risk
        sweeps the whole tape.
    var_rows:
        Market states per VaR refresh (capped at the tape length).
    quote_deadline_s / reval_deadline_s / var_deadline_s:
        Baseline per-kind ``(lo, hi)`` relative-deadline ranges, before
        the tenant's deadline class scales them.
    seed:
        Deterministic seed for arrivals, labels and payloads.

    Returns
    -------
    list[PricingRequest]
        Tenant-tagged requests in arrival order, ids ``0 ..
        n_requests - 1``.
    """
    check_count(n_requests, "n_requests")
    check_count(n_states, "n_states")
    check_count(n_positions, "n_positions")
    tenants = tuple(tenants)
    if not tenants:
        raise ValidationError("tenants must be non-empty")
    probs = np.asarray(mix, dtype=np.float64)
    if probs.shape != (3,) or not np.all(probs >= 0) or not np.isclose(probs.sum(), 1.0):
        raise ValidationError(
            f"mix must be three non-negative probabilities summing to 1, got {mix}"
        )
    check_count(var_rows, "var_rows")
    for name, (lo, hi) in (
        ("quote_deadline_s", quote_deadline_s),
        ("reval_deadline_s", reval_deadline_s),
        ("var_deadline_s", var_deadline_s),
    ):
        if not 0.0 < lo <= hi:
            raise ValidationError(f"{name} must satisfy 0 < lo <= hi, got {(lo, hi)}")

    times, tenant_idx = multi_tenant_arrivals(
        n_requests, rate_hz, [p.share for p in tenants], traffic=traffic,
        seed=seed,
    )
    gen = np.random.default_rng(seed + 1)
    kinds = gen.choice(("quote", "reval", "var"), size=n_requests, p=probs)
    # Same draws as per-request ``gen.choice(n, p=...)``, without
    # re-validating the weights and rebuilding the CDF per request.
    row_sampler = ChoiceSampler(zipf_weights(n_states, row_exponent))
    option_sampler = ChoiceSampler(zipf_weights(n_positions, option_exponent))
    deadline_range = {
        "quote": quote_deadline_s,
        "reval": reval_deadline_s,
        "var": var_deadline_s,
    }
    k_var = min(var_rows, n_states)
    requests: list[PricingRequest] = []
    for i, (t, kind, ti) in enumerate(zip(times, kinds, tenant_idx)):
        tenant = tenants[int(ti)]
        lo, hi = deadline_range[kind]
        deadline = float(t + tenant.deadline_scale * gen.uniform(lo, hi))
        option_index = None
        if kind == "quote":
            rows = (row_sampler.draw(gen),)
            option_index = option_sampler.draw(gen)
        elif kind == "reval":
            rows = (int(gen.integers(n_states)),)
        else:  # var
            rows = tuple(
                int(r) for r in np.sort(gen.choice(n_states, k_var, replace=False))
            )
        requests.append(
            PricingRequest(
                request_id=i,
                kind=str(kind),
                arrival_s=float(t),
                deadline_s=deadline,
                rows=rows,
                option_index=option_index,
                priority=KIND_PRIORITY[str(kind)],
                tenant=tenant.name,
            )
        )
    return requests


def make_tick_stream(
    n_ticks: int,
    *,
    rate_hz: float,
    n_states: int,
    row_exponent: float = 0.0,
    seed: int = 17,
) -> list[tuple[float, int]]:
    """A seeded stream of market ticks invalidating tape rows.

    Each tick ``(time, row)`` models a market update landing on one tape
    row; the gateway drops that row's cached quotes when it fires.  Tick
    times are Poisson; rows default to uniform (``row_exponent=0``) —
    raise the exponent to concentrate churn on the popular rows.

    Parameters
    ----------
    n_ticks:
        Tick count (0 allowed: no invalidation pressure).
    rate_hz:
        Mean tick rate.
    n_states:
        Tape length rows are drawn from.
    row_exponent:
        Zipf skew of which rows tick.
    seed:
        Deterministic seed (offset from the request stream's).

    Returns
    -------
    list[tuple[float, int]]
        Ticks in time order.
    """
    check_index(n_ticks, "n_ticks")
    check_count(n_states, "n_states")
    if n_ticks == 0:
        return []
    times = poisson_arrivals(n_ticks, rate_hz, seed=seed + TICK_SEED_OFFSET)
    gen = np.random.default_rng(seed + TICK_SEED_OFFSET + 1)
    rows = gen.choice(n_states, size=n_ticks, p=zipf_weights(n_states, row_exponent))
    return [(float(t), int(r)) for t, r in zip(times, rows)]
