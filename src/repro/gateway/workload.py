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

Both are deterministic in their seed.  A tenant stream makes the same
``Generator`` draws, in the same order, as drawing one request at a time
(the ``BENCH_gateway.json`` replay and the gateway goldens rest on it),
but a run of consecutive quotes, which draw only doubles, takes them in
one ``random`` call.  That rests on how NumPy's generator draws, which
the test suite checks on the running NumPy: ``uniform(lo, hi)`` is
``lo + (hi - lo) * random()``, ``random((m, 3))`` makes the ``3 * m``
draws of scalar ``random()`` calls in row-major order, and
``choice(n, p=p)`` maps one ``random()`` double through the CDF
(:class:`~repro.workloads.traffic.ChoiceSampler`).
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import (
    check_count,
    check_index,
    check_positive_finite,
)
from repro.errors import ValidationError
from repro.serving.request import PricingRequest
from repro.serving.workload import KIND_PRIORITY, stream_spec
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

#: Zipf skew of the quote market-row and contract popularity.
QUOTE_SKEW = 1.2


def make_tenant_stream(
    n_requests: int,
    *,
    rate_hz: float,
    n_states: int,
    n_positions: int,
    tenants: tuple[TenantProfile, ...] = DEFAULT_TENANTS,
    traffic: str = "poisson",
    mix: tuple[float, float, float] = (0.94, 0.05, 0.01),
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
        gateway fronts retail quote flow.  Quotes draw their market row
        and contract with :data:`QUOTE_SKEW`; reval/var rows stay
        uniform — book-level risk sweeps the whole tape.
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
    probs, deadline_range = stream_spec(
        mix, var_rows, quote_deadline_s, reval_deadline_s, var_deadline_s
    )

    times, tenant_idx = multi_tenant_arrivals(
        n_requests, rate_hz, [p.share for p in tenants], traffic=traffic,
        seed=seed,
    )
    gen = np.random.default_rng(seed + 1)
    kinds = gen.choice(("quote", "reval", "var"), size=n_requests, p=probs)
    row_sampler = ChoiceSampler(zipf_weights(n_states, QUOTE_SKEW))
    option_sampler = ChoiceSampler(zipf_weights(n_positions, QUOTE_SKEW))
    k_var = min(var_rows, n_states)
    kind_of = kinds.tolist()
    # Payloads in trace order.  A quote draws three doubles and nothing
    # else (its deadline ``uniform`` and the row and contract
    # ``choice(p=...)``), so each run of quotes takes its doubles in one
    # ``random`` call, draw for draw; revals and VaRs draw one at a time.
    # ``baseline`` is each relative deadline before the tenant scales it;
    # a quote's is ``uniform``'s arithmetic on its bounds as doubles.
    baseline = np.empty(n_requests)
    rows: list = [None] * n_requests
    options: list = [None] * n_requests
    quote = kinds == "quote"
    edges = np.flatnonzero(quote[1:] != quote[:-1]) + 1
    cuts = [0, *edges.tolist(), n_requests]
    lo, hi = map(float, deadline_range["quote"])
    for start, stop in zip(cuts, cuts[1:]):
        if quote[start]:
            u = gen.random((stop - start, 3))
            baseline[start:stop] = lo + (hi - lo) * u[:, 0]
            rows[start:stop] = [(r,) for r in row_sampler.pick(u[:, 1]).tolist()]
            options[start:stop] = option_sampler.pick(u[:, 2]).tolist()
            continue
        for i in range(start, stop):
            kind = kind_of[i]
            baseline[i] = gen.uniform(*deadline_range[kind])
            if kind == "reval":
                rows[i] = (int(gen.integers(n_states)),)
            else:  # var
                rows[i] = tuple(
                    np.sort(gen.choice(n_states, k_var, replace=False)).tolist()
                )
    scales = np.array([p.deadline_scale for p in tenants], dtype=np.float64)
    deadlines = (times + scales[tenant_idx] * baseline).tolist()
    names = [tenants[ti].name for ti in tenant_idx.tolist()]
    priorities = map(KIND_PRIORITY.__getitem__, kind_of)
    return list(
        map(
            PricingRequest, range(n_requests), kind_of, times.tolist(),
            deadlines, rows, options, priorities, names,
        )
    )


def make_tick_stream(
    n_ticks: int,
    *,
    rate_hz: float,
    n_states: int,
    seed: int = 17,
) -> list[tuple[float, int]]:
    """A seeded stream of market ticks invalidating tape rows.

    Each tick ``(time, row)`` models a market update landing on one tape
    row; the gateway drops that row's cached quotes when it fires.  Tick
    times are Poisson and rows uniform.

    Parameters
    ----------
    n_ticks:
        Tick count (0 allowed: no invalidation pressure).
    rate_hz:
        Mean tick rate.
    n_states:
        Tape length rows are drawn from.
    seed:
        Deterministic seed (offset from the request stream's).

    Returns
    -------
    list[tuple[float, int]]
        Ticks in time order.
    """
    check_index(n_ticks, "n_ticks")
    check_count(n_states, "n_states")
    check_positive_finite(rate_hz, "rate_hz")
    if n_ticks == 0:
        return []
    times = poisson_arrivals(n_ticks, rate_hz, seed=seed + TICK_SEED_OFFSET)
    gen = np.random.default_rng(seed + TICK_SEED_OFFSET + 1)
    # Drawn through ``p=``: an unweighted choice draws another stream.
    rows = gen.choice(n_states, size=n_ticks, p=np.full(n_states, 1 / n_states))
    return [(float(t), int(r)) for t, r in zip(times, rows)]
