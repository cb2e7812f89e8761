"""Per-tenant and aggregate accounting for gateway runs.

The gateway view extends the serving layer's aggregation one level:
next to the usual latency/goodput/shed numbers it reports the cache
economics (hit, join and dedup rates) and a per-tenant breakdown — the
multi-tenant analogue of :func:`~repro.serving.metrics.per_kind_stats`,
keyed on each request's tenant label.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serving.metrics import (
    LatencyStats,
    RunOutcome,
    ServingResult,
    group_fields,
)
from repro.serving.request import (
    FailRecord,
    PricingResponse,
    ShedReason,
    ShedRecord,
)

__all__ = ["TenantStats", "GatewayResult", "per_tenant_stats"]


@dataclass(frozen=True, kw_only=True)
class TenantStats:
    """One tenant's share of a gateway run.

    Attributes
    ----------
    tenant / tier:
        The tenant and its SLA tier.
    n_offered / n_completed / n_shed / n_failed:
        Offered requests of this tenant and how they ended.
    n_shed_quota:
        Of the sheds, how many the tenant's own admission quota
        rejected at the gateway.
    n_cache_hits:
        Completed responses answered from the quote cache.
    n_deadline_met:
        Completed responses inside their deadline.
    goodput_rps:
        Deadline-met responses per second of the *whole run's* span, so
        per-tenant goodputs add up to the aggregate.
    deadline_hit_rate:
        Met over completed (0 when nothing completed).
    latency:
        Percentiles over this tenant's completed responses.
    """

    tenant: str
    tier: str
    n_offered: int
    n_completed: int
    n_shed: int
    n_shed_quota: int
    n_failed: int
    n_cache_hits: int
    n_deadline_met: int
    goodput_rps: float
    deadline_hit_rate: float
    latency: LatencyStats


@dataclass(frozen=True, kw_only=True)
class GatewayResult(RunOutcome):
    """Aggregate outcome of one simulated gateway run: the
    :class:`~repro.serving.metrics.RunOutcome` of the requests offered
    to the gateway, cache and kernel paths alike, plus these.

    Attributes
    ----------
    n_failed:
        Requests that failed; every offered request completes, is shed,
        or fails (the conservation invariant, property-tested).
    n_shed / n_shed_quota:
        Total drops, and gateway quota rejections among them (server
        backpressure and deadline expiry are the outcome's
        ``n_shed_queue`` and ``n_shed_deadline``; other reasons —
        degradation, breaker — make up the remainder).
    n_cache_hits / n_cache_joins / n_cache_invalidations:
        Cache traffic: responses served from a ready entry, requests
        that coalesced onto an in-flight leader, and entries dropped by
        market ticks.
    cache_hit_rate / cache_dedup_rate:
        Hits, and hits+joins, over cacheable lookups (0 with the cache
        off).
    tenants:
        Per-tenant roll-ups in profile order.
    servers:
        Each lane's full :class:`~repro.serving.metrics.ServingResult`
        over the requests routed to it.
    responses / sheds / fails:
        The raw per-request outcomes; excluded from equality.
    """

    n_shed: int
    n_shed_quota: int
    n_cache_hits: int
    n_cache_joins: int
    n_cache_invalidations: int
    cache_hit_rate: float
    cache_dedup_rate: float
    tenants: tuple[TenantStats, ...]
    servers: tuple[ServingResult, ...]
    n_failed: int = 0
    responses: tuple[PricingResponse, ...] = field(
        default=(), compare=False, repr=False
    )
    sheds: tuple[ShedRecord, ...] = field(default=(), compare=False, repr=False)
    fails: tuple[FailRecord, ...] = field(default=(), compare=False, repr=False)

    def summary(self) -> str:
        """One-line aggregate summary."""
        return (
            f"gateway served {self.n_completed}/{self.n_offered} requests "
            f"across {len(self.servers)} servers: "
            f"goodput {self.goodput_rps:,.0f} req/s, "
            f"cache hit rate {self.cache_hit_rate:.1%}, "
            f"latency {self.latency.summary()}, "
            f"shed {self.shed_rate:.1%}"
        )


def per_tenant_stats(
    responses,
    sheds,
    fails,
    *,
    profiles,
    span_s: float,
    cache_response_ids=frozenset(),
) -> tuple[TenantStats, ...]:
    """Break a gateway run down by tenant.

    Tenants appear in profile order; unlabelled traffic (``tenant is
    None``) is billed to the first profile, matching the tenant book's
    passthrough convention.

    Parameters
    ----------
    responses / sheds / fails:
        The run's raw per-request outcomes.
    profiles:
        The run's :class:`~repro.gateway.tenancy.TenantProfile` set.
    span_s:
        The run span goodput normalises by.
    cache_response_ids:
        Request ids answered from the cache (hits and joins).
    """
    profiles = tuple(profiles)
    default = profiles[0].name
    # One pass: each record into its tenant's (responses, sheds, fails).
    # Records of a tenant outside ``profiles`` stay out.
    groups = {p.name: ([], [], []) for p in profiles}
    for slot, tenants, records in (
        (0, [r.tenant for r in responses], responses),
        (1, [s.request.tenant for s in sheds], sheds),
        (2, [f.request.tenant for f in fails], fails),
    ):
        for tenant, record in zip(tenants, records):
            group = groups.get(default if tenant is None else tenant)
            if group is not None:
                group[slot].append(record)
    stats = []
    for profile in profiles:
        mine, my_sheds, my_fails = groups[profile.name]
        stats.append(
            TenantStats(
                tenant=profile.name,
                tier=profile.tier,
                n_shed_quota=[s.reason for s in my_sheds].count(
                    ShedReason.QUOTA
                ),
                n_cache_hits=len(
                    [r for r in mine if r.request_id in cache_response_ids]
                ),
                **group_fields(mine, my_sheds, my_fails, span_s),
            )
        )
    return tuple(stats)
