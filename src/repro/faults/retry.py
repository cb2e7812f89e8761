"""Retry and hedging policies: seeded, capped, deterministic.

:class:`RetryPolicy` implements capped exponential backoff with full
jitter: attempt ``k`` (0-based) backs off up to ``base * mult**k``
seconds, capped at ``cap``, with the actual delay drawn uniformly from
``[0, bound]`` using a generator seeded from the fault plan.  Draws are
consumed in deterministic event order — the simulation fires retries in
``(time, priority, seq)`` order — so the same seed reproduces the same
delays, run after run.

:class:`HedgePolicy` decides when to issue a duplicate dispatch of the
slowest straggling shard: if a shard's projected completion exceeds the
batch's median shard completion by more than ``threshold`` (a ratio),
one hedge is sent to the fastest healthy alternative card and the first
finisher wins.  Hedges cost duplicate simulated work, which the fault
report surfaces as the duplicate-work ratio.
"""

from __future__ import annotations

import numpy as np

from repro.core.validation import (
    check_count,
    check_index,
    check_positive_finite,
    check_range,
)
from repro.errors import ValidationError

__all__ = ["RetryPolicy", "HedgePolicy"]


class RetryPolicy:
    """Capped exponential backoff with full seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total dispatch attempts per unit of work (first try included).
    base_s:
        Backoff bound for the first retry.
    multiplier:
        Exponential growth per further attempt.
    cap_s:
        Upper bound on any single backoff.
    seed:
        Jitter stream seed (take it from ``FaultPlan.seed``).
    """

    def __init__(
        self,
        *,
        max_attempts: int = 4,
        base_s: float = 0.002,
        multiplier: float = 2.0,
        cap_s: float = 0.05,
        seed: int = 0,
    ) -> None:
        check_count(max_attempts, "max_attempts")
        check_positive_finite(base_s, "base_s")
        check_range(multiplier, "multiplier", "[1, inf)")
        check_positive_finite(cap_s, "cap_s")
        if cap_s < base_s:
            raise ValidationError(
                f"cap_s must be >= base_s, got cap={cap_s} base={base_s}"
            )
        self.max_attempts = max_attempts
        self.base_s = base_s
        self.multiplier = multiplier
        self.cap_s = cap_s
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.n_draws = 0

    def exhausted(self, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) is past the budget."""
        return attempt >= self.max_attempts

    def backoff_bound_s(self, attempt: int) -> float:
        """The deterministic cap for the given retry (attempt >= 1)."""
        if not attempt >= 1:
            raise ValidationError(
                f"backoff applies from attempt 1, got {attempt}"
            )
        return min(self.cap_s, self.base_s * self.multiplier ** (attempt - 1))

    def backoff_s(self, attempt: int) -> float:
        """Draw the jittered delay before retry ``attempt`` (1-based).

        Full jitter: uniform on ``[0, bound]``.  Each call consumes one
        draw from the seeded stream; calling in deterministic order is
        what makes the whole run reproducible.
        """
        bound = self.backoff_bound_s(attempt)
        self.n_draws += 1
        return float(self._rng.uniform(0.0, bound))


class HedgePolicy:
    """When and where to duplicate the slowest straggling shard.

    Parameters
    ----------
    enabled:
        Hedging is opt-in (``--hedge`` on the CLI).
    threshold:
        Ratio of a shard's projected completion over the median shard
        completion above which a hedge fires (e.g. ``2.0`` = hedge a
        shard projected to take twice the median).
    max_hedges_per_batch:
        Duplicate-dispatch budget per micro-batch (keeps duplicate work
        bounded).
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        threshold: float = 2.0,
        max_hedges_per_batch: int = 1,
    ) -> None:
        check_range(threshold, "threshold", "(1, inf)")
        check_index(max_hedges_per_batch, "max_hedges_per_batch")
        self.enabled = enabled
        self.threshold = threshold
        self.max_hedges_per_batch = max_hedges_per_batch

    def should_hedge(self, shard_done_s: float, median_done_s: float,
                     formed_s: float) -> bool:
        """Whether a shard projected to finish at ``shard_done_s`` hedges.

        Compares *remaining* spans from batch formation so an early
        batch with tiny absolute times behaves like a late one.
        """
        if not self.enabled:
            return False
        span = shard_done_s - formed_s
        median_span = median_done_s - formed_s
        if median_span <= 0:
            return span > 0
        return span / median_span > self.threshold
