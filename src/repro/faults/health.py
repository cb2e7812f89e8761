"""Cluster health view: the dispatcher's oracle over a fault plan.

:class:`ClusterHealth` projects a :class:`~repro.faults.plan.FaultPlan`
onto a concrete cluster shape and answers the questions the
failure-aware layers ask:

* *which cards may I dispatch to right now?* — :meth:`healthy_cards`;
* *will this prospective busy window be cut short by a crash?* —
  :meth:`crash_during` (the serving layer inspects windows before
  committing them, so a dispatch that would die mid-flight is detected
  and charged as wasted work up to the crash instant);
* *how much slower is this card right now?* — :meth:`service_factor`
  integrates straggler windows over a busy interval (:meth:`straggles`
  says whether a card has any);
* *how stretched is the host link?* — :meth:`link_factor`;
* *is the cluster degraded at all?* — :meth:`capacity_reduced`, the
  gate for the degradation ladder.

The view is pure arithmetic over the plan — no mutable state — so the
same plan gives the same answers in every run, which is what keeps
fault reports bit-reproducible.  Every dispatch consults it, fault-free
runs included (they carry the empty plan), so the questions a run asks
per dispatch answer in O(1) when no card ever goes down.
"""

from __future__ import annotations

import math

from repro.core.validation import check_count
from repro.faults.plan import FaultPlan

__all__ = ["ClusterHealth"]


class ClusterHealth:
    """Per-card and link availability derived from a fault plan.

    Parameters
    ----------
    plan:
        The fault schedule (validated against ``n_cards``).
    n_cards:
        Cluster size; card indices in the plan must be ``< n_cards``.
    """

    def __init__(self, plan: FaultPlan, n_cards: int) -> None:
        check_count(n_cards, "n_cards")
        plan.validate_cards(n_cards)
        self.plan = plan
        self.n_cards = n_cards
        # Per-card outage windows [start, end) with end possibly inf.
        self._down: list[list[tuple[float, float]]] = [
            [] for _ in range(n_cards)
        ]
        for crash in plan.crashes:
            self._down[crash.card].append((crash.at_s, crash.down_until_s))
        for windows in self._down:
            windows.sort()
        self._slow: list[list[tuple[float, float, float]]] = [
            [] for _ in range(n_cards)
        ]
        for slow in plan.slowdowns:
            self._slow[slow.card].append((slow.at_s, slow.until_s, slow.factor))
        for windows in self._slow:
            windows.sort()
        self._link_deg = [
            (d.at_s, d.until_s, d.factor) for d in plan.link_degradations
        ]
        self._all_cards = tuple(range(n_cards))
        self._never_down = not plan.crashes

    # ------------------------------------------------------------------
    # Card availability
    def card_down(self, card: int, t: float) -> bool:
        """Whether ``card`` is inside an outage window at instant ``t``."""
        for s, e in self._down[card]:
            if s <= t < e:
                return True
        return False

    def healthy_cards(self, t: float) -> tuple[int, ...]:
        """Cards outside every outage window at instant ``t``."""
        if self._never_down:
            return self._all_cards
        return tuple(
            c for c in range(self.n_cards) if not self.card_down(c, t)
        )

    def crash_during(self, card: int, start_s: float, done_s: float) -> float | None:
        """The crash instant cutting a busy window short, if any.

        A window ``[start_s, done_s)`` on ``card`` dies if a crash begins
        strictly inside it.  Returns the crash instant, or ``None`` when
        the window completes cleanly.  (A window *starting* inside an
        outage is the reservation layer's concern — :class:`Resource`
        pushes starts past down windows — so only mid-flight crashes
        reach here.)
        """
        for s, _ in self._down[card]:
            if start_s < s < done_s:
                return s
        return None

    # ------------------------------------------------------------------
    # Straggler inflation
    def straggles(self, card: int) -> bool:
        """Whether any straggler window ever slows ``card``."""
        return bool(self._slow[card])

    def service_factor(self, card: int, start_s: float, service_s: float) -> float:
        """Effective service inflation for work on ``card`` at ``start_s``.

        The inflation is integrated over the busy interval: the portion
        of the (inflated) window inside each straggler window is
        stretched by its factor.  For the common case — the window
        entirely inside or entirely outside one slowdown — this is the
        plain factor (or 1.0); partial overlap gets the proportional
        blend, computed by walking the stretched timeline.
        """
        if service_s <= 0 or not self._slow[card]:
            return 1.0
        # Walk forward consuming nominal service, stretching the part
        # that lands inside each slowdown window.
        remaining = service_s
        t = start_s
        for s, e, factor in self._slow[card]:
            if remaining <= 0:
                break
            if e <= t:
                continue
            if t < s:
                # Nominal-speed stretch until the window opens.
                gap = s - t
                if gap >= remaining:
                    t += remaining
                    remaining = 0.0
                    break
                t = s
                remaining -= gap
            # Inside [s, e): each nominal second takes `factor` seconds.
            span = e - t
            capacity = span / factor  # nominal seconds the window absorbs
            if capacity >= remaining:
                t += remaining * factor
                remaining = 0.0
                break
            t = e
            remaining -= capacity
        t += remaining  # tail at nominal speed
        elapsed = t - start_s
        return elapsed / service_s

    # ------------------------------------------------------------------
    # Host link
    def link_factor(self, t: float) -> float:
        """Dispatch-time stretch on the host link at instant ``t``."""
        factor = 1.0
        for s, e, f in self._link_deg:
            if s <= t < e:
                factor *= f
        return factor

    # ------------------------------------------------------------------
    def capacity_reduced(self, t: float) -> bool:
        """Whether any card is down at ``t`` (degradation-ladder gate)."""
        return not self._never_down and len(self.healthy_cards(t)) < self.n_cards

    def first_fault_s(self) -> float:
        """Instant the first fault begins (inf for an empty plan)."""
        if self.plan.is_empty:
            return math.inf
        return self.plan.events[0].at_s

    def last_fault_end_s(self) -> float:
        """Instant the last fault window ends (0 for an empty plan; may be inf)."""
        end = 0.0
        for event in self.plan.events:
            if hasattr(event, "down_until_s"):
                end = max(end, event.down_until_s)
            else:
                end = max(end, event.until_s)
        return end
