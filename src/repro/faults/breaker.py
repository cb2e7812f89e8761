"""Per-card circuit breaker: closed → open → half-open → closed.

The breaker protects the dispatcher from repeatedly routing work at a
card that keeps failing.  Semantics follow the classic pattern:

* **closed** — dispatches flow; consecutive failures are counted and at
  ``failure_threshold`` the breaker trips **open**;
* **open** — the card is skipped outright for ``reset_timeout_s``
  simulated seconds (no dispatch attempts, no probes);
* **half-open** — after the timeout one *probe* dispatch is allowed
  through: success closes the breaker (counter reset), failure re-opens
  it for another full timeout.

All transitions happen on the shared simulated clock, driven by the
dispatcher reporting outcomes via :meth:`record_success` /
:meth:`record_failure` — the breaker never schedules events itself, so
it adds no nondeterminism.
"""

from __future__ import annotations

from repro.core.validation import check_count, check_positive_finite

__all__ = ["CircuitBreaker", "BreakerBank"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """One card's breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker open.
    reset_timeout_s:
        Simulated seconds the breaker stays open before allowing a
        half-open probe.
    """

    __slots__ = (
        "failure_threshold", "reset_timeout_s", "state", "failures",
        "opened_at_s", "n_trips", "n_probes",
    )

    def __init__(
        self, *, failure_threshold: int = 3, reset_timeout_s: float = 0.05
    ) -> None:
        check_count(failure_threshold, "failure_threshold")
        check_positive_finite(reset_timeout_s, "reset_timeout_s")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.state = CLOSED
        self.failures = 0
        self.opened_at_s = 0.0
        self.n_trips = 0
        self.n_probes = 0

    # ------------------------------------------------------------------
    def allow(self, now_s: float) -> bool:
        """Whether a dispatch may be routed at this card right now.

        An open breaker whose timeout has elapsed transitions to
        half-open here and admits exactly the caller's next dispatch as
        the probe.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now_s - self.opened_at_s >= self.reset_timeout_s:
                self.state = HALF_OPEN
                self.n_probes += 1
                return True
            return False
        # HALF_OPEN: one probe is already in flight; hold further work
        # until its outcome is reported.
        return False

    def record_success(self, now_s: float) -> None:
        """Report a dispatch that completed cleanly."""
        self.failures = 0
        self.state = CLOSED

    def record_failure(self, now_s: float) -> None:
        """Report a failed dispatch; may trip or re-open the breaker."""
        if self.state == HALF_OPEN:
            self.state = OPEN
            self.opened_at_s = now_s
            self.n_trips += 1
            return
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.failure_threshold:
            self.state = OPEN
            self.opened_at_s = now_s
            self.n_trips += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircuitBreaker(state={self.state!r}, failures={self.failures})"


class BreakerBank:
    """One breaker per card, plus the aggregate counters reports want."""

    def __init__(
        self,
        n_cards: int,
        *,
        failure_threshold: int = 3,
        reset_timeout_s: float = 0.05,
    ) -> None:
        check_count(n_cards, "n_cards")
        self.breakers = [
            CircuitBreaker(
                failure_threshold=failure_threshold,
                reset_timeout_s=reset_timeout_s,
            )
            for _ in range(n_cards)
        ]

    def __getitem__(self, card: int) -> CircuitBreaker:
        return self.breakers[card]

    def allow(self, card: int, now_s: float) -> bool:
        """Whether ``card``'s breaker admits a dispatch at ``now_s``."""
        return self.breakers[card].allow(now_s)

    def allowed_cards(self, cards, now_s: float) -> tuple[int, ...]:
        """Filter ``cards`` down to those whose breakers admit work.

        Note: half-open transitions happen inside :meth:`allow`, so this
        admits at most one probe per open-elapsed breaker per call.
        """
        return tuple(c for c in cards if self.breakers[c].allow(now_s))

    @property
    def n_trips(self) -> int:
        """Total breaker-open transitions across the bank."""
        return sum(b.n_trips for b in self.breakers)

    @property
    def n_probes(self) -> int:
        """Total half-open probes admitted across the bank."""
        return sum(b.n_probes for b in self.breakers)
