"""Fault reports: what the failure did, and how fast we recovered.

A :class:`FaultReport` is the resilience summary attached to a faulted
run.  It slices the run into three phases on the simulated clock —
*before* the first fault begins, *during* the fault envelope (first
fault start to last fault-window end), and *after* — and reports
goodput (completed requests per second) and p99 latency per phase, plus:

* **recovery time** — how long after the last fault window ends the
  rolling goodput returns to within 5% of the pre-fault rate (the
  acceptance criterion the chaos harness pins);
* **duplicate-work ratio** — wasted simulated busy-seconds (windows cut
  short by crashes, losing hedges) over useful busy-seconds, the price
  paid for the retries and hedges;
* the raw resilience counters (retries, hedges and hedge wins, breaker
  trips, failed requests, degraded sheds).

Everything is pure arithmetic over (completion instant, latency) pairs
and counters the serving layer accumulated, so the report is exactly as
reproducible as the run: same seed + same plan ⇒ identical JSON.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from repro.faults.health import ClusterHealth
from repro.faults.plan import FaultPlan

__all__ = ["FaultCounters", "PhaseStats", "FaultReport", "build_fault_report"]

#: Rolling-window goodput must reach this fraction of the pre-fault rate
#: for the run to count as recovered.
RECOVERY_FRACTION = 0.95


@dataclass
class FaultCounters:
    """Mutable resilience counters the dispatcher increments in-run."""

    n_retries: int = 0
    n_hedges: int = 0
    n_hedge_wins: int = 0
    n_breaker_trips: int = 0
    n_breaker_probes: int = 0
    n_failed_dispatches: int = 0
    n_failed_requests: int = 0
    n_shed_degraded: int = 0
    n_repartitions: int = 0
    useful_work_s: float = 0.0
    wasted_work_s: float = 0.0

    @property
    def duplicate_work_ratio(self) -> float:
        """Wasted fraction of all busy-seconds (0 when nothing ran)."""
        total = self.useful_work_s + self.wasted_work_s
        if total <= 0:
            return 0.0
        return self.wasted_work_s / total


@dataclass(frozen=True)
class PhaseStats:
    """Goodput and tail latency over one phase of the run."""

    name: str
    start_s: float
    end_s: float
    n_completed: int
    goodput_rps: float
    p99_latency_ms: float

    def to_dict(self) -> dict:
        """JSON-ready mapping (inf end collapses to None)."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": None if math.isinf(self.end_s) else self.end_s,
            "n_completed": self.n_completed,
            "goodput_rps": self.goodput_rps,
            "p99_latency_ms": self.p99_latency_ms,
        }


def _p99_ms(latencies: list[float]) -> float:
    # The nearest-rank p99 (NumPy's inverted_cdf rule), not the linear
    # one the serving report uses: the fault_report.json golden pins it.
    if not latencies:
        return 0.0
    return float(np.percentile(latencies, 99, method="inverted_cdf")) * 1e3


def _phase(name: str, start_s: float, end_s: float,
           completions: list[tuple[float, float]],
           *, closed: bool = False) -> PhaseStats:
    # Phases are half-open [start, end) except the run's final phase,
    # which closes at the span end — the last completion *defines* the
    # span, so a half-open tail would always drop it.
    inside = [
        (d, lat) for d, lat in completions
        if start_s <= d and (d <= end_s if closed else d < end_s)
    ]
    span = (end_s if not math.isinf(end_s) else
            (max((d for d, _ in completions), default=start_s))) - start_s
    goodput = len(inside) / span if span > 0 else 0.0
    return PhaseStats(
        name=name,
        start_s=start_s,
        end_s=end_s,
        n_completed=len(inside),
        goodput_rps=goodput,
        p99_latency_ms=_p99_ms([lat for _, lat in inside]),
    )


@dataclass(frozen=True)
class FaultReport:
    """Resilience summary of one faulted run."""

    spec: str
    seed: int
    phases: tuple[PhaseStats, ...]
    recovery_time_s: float | None
    counters: FaultCounters = field(compare=False)

    def to_dict(self) -> dict:
        """JSON-ready mapping, key order fixed for golden comparison."""
        c = self.counters
        return {
            "spec": self.spec,
            "seed": self.seed,
            "phases": [p.to_dict() for p in self.phases],
            "recovery_time_s": self.recovery_time_s,
            "n_retries": c.n_retries,
            "n_hedges": c.n_hedges,
            "n_hedge_wins": c.n_hedge_wins,
            "n_breaker_trips": c.n_breaker_trips,
            "n_breaker_probes": c.n_breaker_probes,
            "n_failed_dispatches": c.n_failed_dispatches,
            "n_failed_requests": c.n_failed_requests,
            "n_shed_degraded": c.n_shed_degraded,
            "n_repartitions": c.n_repartitions,
            "useful_work_s": c.useful_work_s,
            "wasted_work_s": c.wasted_work_s,
            "duplicate_work_ratio": c.duplicate_work_ratio,
        }


def _recovery_time(
    completions: list[tuple[float, float]],
    fault_end_s: float,
    target_rps: float,
    window_s: float,
) -> float | None:
    """Seconds after ``fault_end_s`` until rolling goodput recovers.

    Slides a ``window_s`` window anchored at each post-fault completion;
    the run has recovered at the earliest anchor whose window holds at
    least ``RECOVERY_FRACTION * target_rps`` completions per second.
    Returns ``0.0`` when the rate never dipped, ``None`` when it never
    recovers inside the run.
    """
    if target_rps <= 0 or math.isinf(fault_end_s):
        return None
    done = sorted(d for d, _ in completions)
    needed = RECOVERY_FRACTION * target_rps * window_s
    anchors = [fault_end_s] + [d for d in done if d >= fault_end_s]
    for anchor in anchors:
        lo = bisect.bisect_left(done, anchor)
        hi = bisect.bisect_right(done, anchor + window_s)
        if hi - lo >= needed:
            return anchor - fault_end_s
    return None


def build_fault_report(
    plan: FaultPlan,
    health: ClusterHealth,
    completions: list[tuple[float, float]],
    counters: FaultCounters,
    *,
    span_s: float,
    recovery_window_s: float | None = None,
) -> FaultReport:
    """Assemble the report from run artefacts.

    Parameters
    ----------
    plan / health:
        The fault schedule and its projection on the cluster.
    completions:
        ``(completion_instant_s, latency_s)`` per completed request.
    counters:
        The dispatcher's accumulated resilience counters.
    span_s:
        Total simulated span of the run (phase boundaries are clamped
        to it).
    recovery_window_s:
        Rolling-goodput window; defaults to a quarter of the fault
        envelope (min 10 ms) so short faults still resolve.
    """
    fault_start = min(health.first_fault_s(), span_s)
    fault_end = health.last_fault_end_s()
    fault_end = span_s if math.isinf(fault_end) else min(fault_end, span_s)
    fault_end = max(fault_end, fault_start)

    phases = (
        _phase("before", 0.0, fault_start, completions),
        _phase(
            "during", fault_start, fault_end, completions,
            closed=fault_end >= span_s,
        ),
        _phase(
            "after", fault_end, max(span_s, fault_end), completions,
            closed=fault_end < span_s,
        ),
    )
    before = phases[0]
    if recovery_window_s is None:
        envelope = fault_end - fault_start
        recovery_window_s = max(envelope / 4.0, 0.010)
    recovery = _recovery_time(
        completions, fault_end, before.goodput_rps, recovery_window_s
    )
    return FaultReport(
        spec=plan.spec(),
        seed=plan.seed,
        phases=phases,
        recovery_time_s=recovery,
        counters=counters,
    )
