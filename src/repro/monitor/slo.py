"""The SLO engine: objectives, error budgets, burn-rate alerts.

Declarative service-level objectives over a monitored serving replay,
evaluated entirely on the simulated clock.  An :class:`Objective` names
an SLI, a good-event target, and (for latency SLIs) a threshold:

* ``latency`` — a response is *bad* when its latency exceeds
  ``threshold_s`` (optionally restricted to one request kind);
* ``deadline`` — a response is *bad* when it missed its deadline;
* ``shed`` — every arrival is an event; sheds are the bad ones;
* ``availability`` — sampled card availability; a sample carries
  fractional bad mass ``1 - cards_up / n_cards`` (one dead card on a
  four-card cluster burns a quarter of a bad event per sample).

Alerting follows the multi-window, multi-burn-rate recipe from the
Google SRE workbook: the **burn rate** over a trailing window is the
window's bad fraction divided by the objective's error budget
(``1 - target``), and a :class:`BurnRateRule` fires only when *both* a
long and a short trailing window exceed its burn threshold — the long
window supplies significance (one bad sample cannot page), the short
window supplies reset speed (the alert clears quickly once the SLI
recovers).  Rules are evaluated at a fixed tick cadence; consecutive
breaching ticks merge into one :class:`Alert` with a fire and an
optional clear instant.

Everything here is pure arithmetic over event streams — deterministic
in the replay's seed, which is what lets the chaos harness pin
time-to-detect in a committed golden.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.core.validation import check_positive_finite, check_range
from repro.errors import ValidationError
from repro.monitor.series import TimeSeries

__all__ = [
    "Objective",
    "BurnRateRule",
    "Alert",
    "SLOStatus",
    "DEFAULT_RULES",
    "evaluate_objective",
]

#: Supported SLI families.
SLI_KINDS = ("latency", "deadline", "shed", "availability")


@dataclass(frozen=True)
class Objective:
    """One declarative SLO.

    Attributes
    ----------
    name:
        Identity in alerts, budgets, dashboards and goldens.
    sli:
        SLI family (one of :data:`SLI_KINDS`).
    target:
        Required good fraction in ``(0, 1)``; the error budget is
        ``1 - target``.
    kind:
        Optional request-kind filter (``"quote"``/``"reval"``/``"var"``)
        for the ``latency`` and ``deadline`` SLIs; ``None`` = all kinds.
    threshold_s:
        Latency threshold (required for the ``latency`` SLI).
    tenant:
        Optional tenant filter for the per-request SLIs (``latency`` /
        ``deadline`` / ``shed``): only events whose request carries the
        tenant label count.  ``None`` (the default, and the only value
        single-tenant serving replays produce) = all traffic, which
        keeps the historical goldens byte-identical.
    """

    name: str
    sli: str
    target: float
    kind: str | None = None
    threshold_s: float | None = None
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.sli not in SLI_KINDS:
            raise ValidationError(
                f"objective {self.name!r}: unknown SLI {self.sli!r}; "
                f"choose from {SLI_KINDS}"
            )
        check_range(self.target, f"objective {self.name!r}: target", "(0, 1)")
        if self.sli == "latency" and self.threshold_s is None:
            raise ValidationError(
                f"objective {self.name!r}: the latency SLI needs "
                "threshold_s"
            )

    @property
    def budget(self) -> float:
        """Allowed bad fraction (``1 - target``)."""
        return 1.0 - self.target

    def describe(self) -> str:
        """Human-readable one-liner for tables and dashboards."""
        scope = self.kind if self.kind is not None else "all"
        if self.tenant is not None:
            scope = f"{self.tenant} {scope}"
        if self.sli == "latency":
            return (
                f"{scope} latency <= {self.threshold_s * 1e3:g} ms "
                f"for {self.target:.1%} of requests"
            )
        if self.sli == "deadline":
            return f"{scope} deadline hit rate >= {self.target:.1%}"
        if self.sli == "shed":
            return f"shed rate < {self.budget:.1%} of arrivals"
        return f"card availability >= {self.target:.1%}"


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alert rule.

    Fires when the burn rate over *both* trailing windows meets
    ``burn``: ``bad_fraction(window) / budget >= burn``.
    """

    long_s: float
    short_s: float
    burn: float

    def __post_init__(self) -> None:
        check_positive_finite(self.long_s, "long_s")
        check_positive_finite(self.short_s, "short_s")
        if self.short_s > self.long_s:
            raise ValidationError(
                f"short window {self.short_s} must not exceed long window "
                f"{self.long_s}"
            )
        check_positive_finite(self.burn, "burn")


#: Default rule pair, scaled to the sub-second serving replays: a fast
#: burn (page-grade) and a slow burn (ticket-grade), the two-tier
#: structure of the SRE workbook compressed onto the simulated
#: timescale.
DEFAULT_RULES: tuple[BurnRateRule, ...] = (
    BurnRateRule(long_s=0.050, short_s=0.015, burn=4.0),
    BurnRateRule(long_s=0.150, short_s=0.050, burn=2.0),
)


@dataclass(frozen=True)
class Alert:
    """One fired alert: a contiguous breach of an objective's rules.

    Attributes
    ----------
    objective:
        The breached objective's name.
    rule:
        Index of the triggering rule in the objective's rule tuple
        (the first rule breaching at the fire tick).
    fired_s / cleared_s:
        Breach start and end instants on the simulated clock;
        ``cleared_s`` is ``None`` when still firing at end of run.
    peak_burn:
        Highest long-window burn rate seen while firing.
    """

    objective: str
    rule: int
    fired_s: float
    cleared_s: float | None
    peak_burn: float

    @property
    def duration_s(self) -> float | None:
        """Breach length (``None`` while still firing)."""
        if self.cleared_s is None:
            return None
        return self.cleared_s - self.fired_s

    def to_dict(self) -> dict:
        """JSON-friendly dump."""
        return {
            "objective": self.objective,
            "rule": self.rule,
            "fired_s": self.fired_s,
            "cleared_s": self.cleared_s,
            "peak_burn": self.peak_burn,
        }


@dataclass(frozen=True)
class SLOStatus:
    """Whole-run budget accounting for one objective.

    Attributes
    ----------
    objective:
        The objective (carried whole for rendering).
    n_events / bad_mass:
        Total events observed and their summed bad mass.
    good_fraction:
        ``1 - bad_mass / n_events`` (1.0 for an empty stream — no
        traffic burns no budget).
    budget_spent:
        Fraction of the error budget consumed over the run
        (``bad_fraction / budget``; may exceed 1).
    met:
        Whether the run as a whole honoured the target.
    alerts:
        Alerts fired for this objective, in fire order.
    """

    objective: Objective
    n_events: int
    bad_mass: float
    good_fraction: float
    budget_spent: float
    met: bool
    alerts: tuple[Alert, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """JSON-friendly dump.

        The ``tenant`` key appears only for tenant-scoped objectives, so
        single-tenant monitor goldens stay byte-identical.
        """
        out = {
            "name": self.objective.name,
            "sli": self.objective.sli,
            "kind": self.objective.kind,
            "target": self.objective.target,
            "threshold_s": self.objective.threshold_s,
            "description": self.objective.describe(),
            "n_events": self.n_events,
            "bad_mass": self.bad_mass,
            "good_fraction": self.good_fraction,
            "budget_spent": self.budget_spent,
            "met": self.met,
            "alerts": [a.to_dict() for a in self.alerts],
        }
        if self.objective.tenant is not None:
            out["tenant"] = self.objective.tenant
        return out


class _BadMassIndex:
    """Prefix-summed (t, bad) events for O(log n) window burn queries."""

    def __init__(self, events: list[tuple[float, float]]) -> None:
        events.sort(key=lambda e: e[0])
        self.times = [t for t, _ in events]
        self.prefix = [0.0]
        for _, bad in events:
            self.prefix.append(self.prefix[-1] + bad)

    def window(self, start_s: float, end_s: float) -> tuple[int, float]:
        """Event count and bad mass with ``start_s < t <= end_s``."""
        lo = bisect_right(self.times, start_s)
        hi = bisect_right(self.times, end_s)
        return hi - lo, self.prefix[hi] - self.prefix[lo]

    def burn(self, start_s: float, end_s: float, budget: float) -> float:
        """Window bad fraction over the budget (0 for an empty window)."""
        n, bad = self.window(start_s, end_s)
        if n == 0:
            return 0.0
        return (bad / n) / budget


def _objective_events(
    objective: Objective,
    result,
    availability: TimeSeries | None,
    n_cards: int,
) -> list[tuple[float, float]]:
    """The objective's ``(t, bad)`` event stream from a serving result."""

    def owns(record) -> bool:
        if objective.tenant is None:
            return True
        request = getattr(record, "request", record)
        return getattr(request, "tenant", None) == objective.tenant

    events: list[tuple[float, float]] = []
    if objective.sli == "availability":
        if availability is None:
            return []
        for t, up in zip(availability.times, availability.values):
            events.append((t, 1.0 - up / n_cards))
        return events
    if objective.sli == "shed":
        for resp in result.responses:
            if owns(resp):
                events.append((resp.completion_s, 0.0))
        for shed in result.sheds:
            if owns(shed):
                events.append((shed.time_s, 1.0))
        for fail in result.fails:
            if owns(fail):
                events.append((fail.time_s, 1.0))
        return events
    # latency / deadline: one event per response (fails count as bad —
    # a request that never completed certainly blew its objective).
    for resp in result.responses:
        if objective.kind is not None and resp.kind != objective.kind:
            continue
        if not owns(resp):
            continue
        if objective.sli == "latency":
            bad = 1.0 if resp.latency_s > objective.threshold_s else 0.0
        else:
            bad = 0.0 if resp.met_deadline else 1.0
        events.append((resp.completion_s, bad))
    for fail in result.fails:
        if objective.kind is not None and fail.request.kind != objective.kind:
            continue
        if not owns(fail):
            continue
        events.append((fail.time_s, 1.0))
    return events


def evaluate_objective(
    objective: Objective,
    result,
    *,
    rules: tuple[BurnRateRule, ...] = DEFAULT_RULES,
    tick_s: float,
    span_s: float,
    availability: TimeSeries | None = None,
    n_cards: int = 1,
) -> SLOStatus:
    """Evaluate one objective over a replay: budget, burn rates, alerts.

    Parameters
    ----------
    objective / rules:
        The SLO and its alert rules.
    result:
        The replay's :class:`~repro.serving.metrics.ServingResult`
        (raw responses/sheds/fails carry the event streams).
    tick_s:
        Evaluation cadence; alerts fire and clear on tick boundaries.
    span_s:
        End of the evaluation horizon on the simulated clock.
    availability / n_cards:
        The sampled ``cards_up`` series (for the availability SLI) and
        the cluster size it is normalised by.
    """
    check_positive_finite(tick_s, "tick_s")
    if not rules:
        raise ValidationError(f"objective {objective.name!r} needs >= 1 rule")
    index = _BadMassIndex(
        _objective_events(objective, result, availability, n_cards)
    )
    budget = objective.budget

    alerts: list[Alert] = []
    firing: dict | None = None
    t = tick_s
    while t <= span_s + tick_s / 2:
        breach_rule = None
        peak = 0.0
        for i, rule in enumerate(rules):
            burn_long = index.burn(t - rule.long_s, t, budget)
            burn_short = index.burn(t - rule.short_s, t, budget)
            peak = max(peak, burn_long)
            if burn_long >= rule.burn and burn_short >= rule.burn:
                breach_rule = i if breach_rule is None else breach_rule
        if breach_rule is not None:
            if firing is None:
                firing = {"rule": breach_rule, "fired": t, "peak": peak}
            else:
                firing["peak"] = max(firing["peak"], peak)
        elif firing is not None:
            alerts.append(
                Alert(
                    objective=objective.name,
                    rule=firing["rule"],
                    fired_s=firing["fired"],
                    cleared_s=t,
                    peak_burn=firing["peak"],
                )
            )
            firing = None
        t += tick_s
    if firing is not None:
        alerts.append(
            Alert(
                objective=objective.name,
                rule=firing["rule"],
                fired_s=firing["fired"],
                cleared_s=None,
                peak_burn=firing["peak"],
            )
        )

    n_events, bad_mass = index.window(float("-inf"), float("inf"))
    good_fraction = 1.0 - bad_mass / n_events if n_events else 1.0
    bad_fraction = bad_mass / n_events if n_events else 0.0
    return SLOStatus(
        objective=objective,
        n_events=n_events,
        bad_mass=bad_mass,
        good_fraction=good_fraction,
        budget_spent=bad_fraction / budget,
        met=good_fraction >= objective.target,
        alerts=tuple(alerts),
    )
