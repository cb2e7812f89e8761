"""Per-tenant profiles and admission control at the gateway edge.

A :class:`TenantProfile` is one client organisation's SLA contract:
a priority tier (added to every request's coalescer priority), an
admission quota (a classic token bucket over the simulated clock — the
sustained request rate plus a burst allowance), and a deadline class
(how much looser than the baseline this tenant's deadlines are; applied
by the workload generator).  Profiles are pure configuration; the
mutable bucket state lives in a per-replay :class:`TenantBook`, so one
gateway can serve many independent replays.

Quota rejections happen *before* a request reaches any server's bounded
queue and carry the typed :attr:`~repro.serving.request.ShedReason.
QUOTA` reason — the gateway's own shed class, distinct from server
backpressure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_index, check_positive_finite
from repro.errors import ValidationError

__all__ = [
    "TenantProfile",
    "TokenBucket",
    "TenantBook",
    "DEFAULT_TENANTS",
    "PASSTHROUGH_TENANT",
]


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's SLA contract at the gateway.

    Attributes
    ----------
    name:
        Tenant identifier (requests and responses carry it).
    tier:
        Human-readable tier label (``gold`` / ``silver`` / ...).
    quota_rps:
        Sustained admission rate of the token bucket; ``None`` means
        unlimited (no bucket).
    burst:
        Bucket capacity in tokens; ``None`` derives 5 ms worth of the
        sustained rate (at least 1 token).
    priority_boost:
        Added to every admitted request's priority, so higher tiers win
        micro-batch slots under contention.
    deadline_scale:
        Deadline class: the workload generator stretches this tenant's
        deadlines by the factor (1.0 = the baseline class).
    share:
        Default share of the offered load in generated tenant mixes.
    """

    name: str
    tier: str = "standard"
    quota_rps: float | None = None
    burst: float | None = None
    priority_boost: int = 0
    deadline_scale: float = 1.0
    share: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("tenant name must be non-empty")
        if self.quota_rps is not None:
            check_positive_finite(self.quota_rps, "quota_rps")
        if self.burst is not None:
            check_positive_finite(self.burst, "burst")
        check_index(self.priority_boost, "priority_boost")
        check_positive_finite(self.deadline_scale, "deadline_scale")
        check_positive_finite(self.share, "share")

    @property
    def bucket_capacity(self) -> float | None:
        """Effective burst allowance (``None`` when unlimited)."""
        if self.quota_rps is None:
            return None
        if self.burst is not None:
            return self.burst
        return max(1.0, 0.005 * self.quota_rps)


class TokenBucket:
    """Deterministic token bucket on the simulated clock.

    Starts full; refills continuously at ``rate`` tokens per simulated
    second up to ``capacity``; :meth:`try_take` spends one token per
    admitted request.
    """

    def __init__(self, rate: float, capacity: float) -> None:
        check_positive_finite(rate, "rate")
        check_positive_finite(capacity, "capacity")
        self.rate = rate
        self.capacity = capacity
        self.tokens = capacity
        self._last_s = 0.0

    def try_take(self, now_s: float) -> bool:
        """Admit (and spend a token) or reject at ``now_s``."""
        if now_s > self._last_s:
            self.tokens = min(
                self.capacity, self.tokens + (now_s - self._last_s) * self.rate
            )
            self._last_s = now_s
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class TenantBook:
    """One replay's tenant state: profiles plus live bucket levels.

    Parameters
    ----------
    profiles:
        The tenant set (non-empty, unique names).  Requests arriving
        with an unknown (or ``None``) tenant are billed to the first
        profile — the single-tenant passthrough convention.
    """

    def __init__(self, profiles) -> None:
        profiles = tuple(profiles)
        if not profiles:
            raise ValidationError("a tenant book needs at least one profile")
        names = [p.name for p in profiles]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate tenant names in {names}")
        self.profiles = profiles
        self._by_name = {p.name: p for p in profiles}
        self._buckets = {
            p.name: TokenBucket(p.quota_rps, p.bucket_capacity)
            for p in profiles
            if p.quota_rps is not None
        }

    @property
    def names(self) -> tuple[str, ...]:
        """Tenant names in declaration order."""
        return tuple(p.name for p in self.profiles)

    def profile(self, tenant: str | None) -> TenantProfile:
        """The named tenant's profile (default: the first profile)."""
        if tenant is None:
            return self.profiles[0]
        try:
            return self._by_name[tenant]
        except KeyError:
            raise ValidationError(
                f"unknown tenant {tenant!r}; choose from {sorted(self._by_name)}"
            ) from None

    def admit(self, tenant: str | None, now_s: float) -> bool:
        """Charge the tenant's token bucket (unlimited tenants always pass)."""
        bucket = self._buckets.get(self.profile(tenant).name)
        return True if bucket is None else bucket.try_take(now_s)


#: The single-tenant passthrough profile: unlimited quota, no boost,
#: baseline deadlines — a gateway configured with only this tenant adds
#: no admission behaviour on top of the servers.
PASSTHROUGH_TENANT = TenantProfile(name="default", tier="standard")

#: A representative three-tier tenant mix for reports and benchmarks:
#: a latency-critical gold desk, a standard silver flow, and a bulk
#: bronze tier with a hard admission quota.
DEFAULT_TENANTS: tuple[TenantProfile, ...] = (
    TenantProfile(
        name="gold", tier="gold", priority_boost=2, deadline_scale=1.0,
        share=0.5,
    ),
    TenantProfile(
        name="silver", tier="silver", priority_boost=1, deadline_scale=1.5,
        share=0.3,
    ),
    TenantProfile(
        name="bronze", tier="bronze", quota_rps=8_000.0, priority_boost=0,
        deadline_scale=2.0, share=0.2,
    ),
)
