"""Sharding the scenario x portfolio grid across cluster cards.

A scenario-revaluation run is "embarrassingly parallel the other way
round" from the PR-1 cluster: instead of one market state and a portfolio
sharded across cards, the *portfolio* is broadcast to every card and the
*scenarios* are sharded.  Each scenario costs one full portfolio batch on
its card (bump-and-reprice re-sends the shocked rate tables and reprices
every contract), so the per-scenario cost is uniform and known — which is
exactly the regime where the PR-1 schedulers, host-link contention model
and batching queue compose cleanly:

* the scenario indices are partitioned by any
  :class:`~repro.cluster.scheduler.ClusterScheduler` (uniform costs make
  all policies near-equivalent, but the interface stays pluggable);
* one representative card batch is timed on the card's own
  :class:`~repro.cluster.node.ClusterNode` to get the per-scenario
  kernel and PCIe seconds — identical scenarios never need re-timing.
  :meth:`~repro.cluster.node.ClusterNode.kernel_cycles` replays the
  engine network's timing without computing values, and gives exactly
  the cycles a discrete-event run of the batch reports;
* each card's scenario chunk is coalesced into host dispatches by a
  :class:`~repro.cluster.batching.BatchQueue`, and PCIe time is stretched
  by the :class:`~repro.cluster.interconnect.HostLinkModel` contention
  factor, exactly as in a portfolio-sharded batch.

The timing replay is one walk per card against a fault plan's
:class:`~repro.faults.ClusterHealth`.  Without faults (the empty plan)
each card's scenario chunk is a single busy window of ``len(chunk)``
batch quanta from t=0, pinned bit-identical to the legacy roll-up by
the timing-conformance suite; crashes and stragglers make the same walk
re-partition and stretch work.

Numerical results never depend on the sharding — only the simulated
timing and power roll-up (:class:`ClusterTiming`) do.  Under batched
revaluation the shard boundaries double as kernel chunk boundaries: each
card's scenario indices become one :func:`~repro.core.vector_pricing.
price_packed_many` call (optionally sub-chunked to bound memory), so this
module's timing simulation is unchanged by the batching layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.batching import BatchQueue
from repro.cluster.interconnect import HostLinkModel
from repro.cluster.node import ClusterNode
from repro.cluster.scheduler import make_scheduler
from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.errors import ValidationError
from repro.faults.health import ClusterHealth
from repro.faults.plan import FaultPlan
from repro.workloads.scenarios import PaperScenario

__all__ = [
    "CardShard",
    "ClusterTiming",
    "FaultedClusterTiming",
    "simulate_grid_run",
]


@dataclass(frozen=True)
class CardShard:
    """One card's share of the scenario grid.

    Attributes
    ----------
    card_id:
        Which card.
    n_scenarios:
        Scenarios revalued on this card (0 for idle cards).
    dispatches:
        Host dispatches that fed this card (batch-queue chunks).
    seconds:
        Card busy time across all its scenario batches.
    utilisation:
        Busy fraction of the run makespan.
    watts:
        Card power during the run (idle cards draw shell power).
    """

    card_id: int
    n_scenarios: int
    dispatches: int
    seconds: float
    utilisation: float
    watts: float

    @property
    def idle(self) -> bool:
        """Whether this card received no scenarios."""
        return self.n_scenarios == 0


@dataclass(frozen=True)
class ClusterTiming:
    """Simulated timing and power roll-up for one scenario-grid run.

    Attributes
    ----------
    n_scenarios / n_positions:
        Grid shape: every scenario reprices every position.
    n_cards / n_active_cards / policy:
        Cluster shape and the scheduling policy that sharded the grid.
    batch_seconds:
        One scenario's portfolio batch on one card (kernel + contended
        PCIe) — the uniform cost quantum of the grid.
    makespan_seconds:
        Slowest card's busy time plus serial host dispatch.
    scenarios_per_second / repricings_per_second:
        Aggregate throughput; a "repricing" is one contract under one
        scenario (the grid cell), the unit comparable to the paper's
        options/second.
    total_watts / repricings_per_watt:
        Power roll-up across all cards.
    dispatches:
        Total host dispatches (sum of per-card batch-queue chunks).
    cards:
        Per-card roll-ups, including idle cards.
    """

    n_scenarios: int
    n_positions: int
    n_cards: int
    n_active_cards: int
    policy: str
    batch_seconds: float
    makespan_seconds: float
    scenarios_per_second: float
    repricings_per_second: float
    total_watts: float
    repricings_per_watt: float
    dispatches: int
    cards: tuple[CardShard, ...]

    def summary(self) -> str:
        """One-line aggregate summary."""
        return (
            f"grid[{self.n_scenarios} scenarios x {self.n_positions} positions, "
            f"{self.n_cards} cards, {self.policy}]: "
            f"{self.repricings_per_second:,.0f} repricings/s, "
            f"{self.total_watts:.1f} W, "
            f"{self.repricings_per_watt:,.1f} repricings/W"
        )


@dataclass(frozen=True)
class FaultedClusterTiming(ClusterTiming):
    """A grid roll-up that survived a fault plan.

    A subclass (not extra fields on :class:`ClusterTiming`) because the
    risk report serialises timing via ``dataclasses.asdict`` — the fault
    keys may only exist when faults were actually injected, or zero-fault
    reports would stop matching their goldens.

    Attributes
    ----------
    fault_spec:
        The plan, in ``--faults`` spec grammar.
    n_repartitions:
        Card deaths that triggered a re-shard of the surviving work.
    n_rescheduled:
        Scenario revaluations moved off a dead card onto survivors.
    n_failed_scenarios:
        Scenarios that could not be completed anywhere (every card down).
    wasted_seconds:
        Card busy time burned on work a crash destroyed.
    """

    fault_spec: str = ""
    n_repartitions: int = 0
    n_rescheduled: int = 0
    n_failed_scenarios: int = 0
    wasted_seconds: float = 0.0


def simulate_grid_run(
    assignment: list[list[int]],
    options: list[CDSOption],
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    *,
    scenario: PaperScenario,
    policy: str,
    n_engines: int = 5,
    link: HostLinkModel | None = None,
    queue: BatchQueue | None = None,
    telemetry=None,
    faults=None,
) -> ClusterTiming:
    """Simulate the cluster timing of a sharded scenario-grid run.

    One representative portfolio batch is timed on a card's engine
    system (:meth:`~repro.cluster.node.ClusterNode.kernel_cycles`, the
    timing-only replay of the engine network, equal to its
    discrete-event run); every scenario then costs exactly that batch
    (same contracts, same table sizes — only the table *values* differ,
    which the timing model is invariant to).

    Each card then walks its queue against the fault plan's
    :class:`~repro.faults.ClusterHealth`.  A segment of work on a card
    no straggler touches, finishing before the card's next crash, is one
    busy window of ``count * batch_seconds``; otherwise the card walks
    it scenario by scenario, stretching each batch quantum through
    straggler windows.  A crash destroys the in-progress scenario
    (wasted work) and re-partitions the card's remaining work across the
    cards healthy at the crash instant.  The empty plan (``faults=None``)
    walks every chunk in one window from t=0 and returns a plain
    :class:`ClusterTiming`; a non-empty plan returns a
    :class:`FaultedClusterTiming`.

    Parameters
    ----------
    assignment:
        Scenario indices per card, from
        :func:`~repro.cluster.scheduler.shard_scenarios`.
    options:
        The portfolio every card reprices per scenario.
    yield_curve / hazard_curve:
        Base rate tables (sizes drive the simulated batch cost).
    scenario:
        Experimental configuration shared by every card.
    policy:
        Scheduling policy name, for the roll-up (and for re-partitioning
        work off crashed cards).
    n_engines:
        CDS engines per card (floorplan-validated).
    link:
        Host-path timing model (default :class:`HostLinkModel`).
    queue:
        Host batching queue that chunks each card's scenario stream into
        dispatches (default :class:`BatchQueue`).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle: card busy
        windows are recorded as spans when it records, and the grid
        roll-up is published into its registry (``risk_grid_*``
        metrics, plus the fault counters under a non-empty plan).  The
        roll-up itself is identical either way.
    faults:
        Optional :class:`~repro.faults.FaultPlan`; ``None`` is the
        empty plan.
    """
    if not options:
        raise ValidationError("grid run needs at least one position")
    if not assignment:
        raise ValidationError("grid run needs at least one card")
    link = link if link is not None else HostLinkModel()
    queue = queue if queue is not None else BatchQueue()
    plan = faults if faults is not None else FaultPlan()
    recorder = telemetry.recorder if telemetry is not None else None

    n_sharded = sum(len(chunk) for chunk in assignment)
    n_cards = len(assignment)
    factor = link.contention_factor(sum(1 for chunk in assignment if chunk))

    # One representative batch on card 0; all scenarios share its cost.
    node = ClusterNode(0, scenario, n_engines=n_engines)
    kernel = scenario.clock.seconds(
        node.kernel_cycles(options, yield_curve, hazard_curve)
    )
    batch_seconds = kernel + scenario.pcie_seconds(len(options)) * factor
    health = ClusterHealth(plan, n_cards)

    def n_dispatches(count: int) -> int:
        # All of a segment's scenarios are present at once, so only the
        # queue's size cap shapes the host dispatches.
        return math.ceil(count / queue.max_batch)

    # Per-card work: (available-from, scenario count) segments; counts
    # are all that matter — scenario cost is uniform.
    segments: list[list[tuple[float, int]]] = [
        [(0.0, len(chunk))] if chunk else [] for chunk in assignment
    ]
    dispatches_per_card = [n_dispatches(len(chunk)) for chunk in assignment]
    cursor = [0.0] * n_cards
    completed = [0] * n_cards
    busy = [0.0] * n_cards
    done_time = [0.0] * n_cards
    wasted = 0.0
    n_repartitions = 0
    n_rescheduled = 0
    n_failed = 0

    def record(card: int, start: float, end: float, count: int) -> None:
        if recorder is not None and recorder.enabled:
            recorder.record(
                "scenario_shard", start, end, track=f"card{card}",
                category="resource", kind="grid",
                args={"scenarios": count, "dispatches": n_dispatches(count)},
            )

    def run_until(card: int, limit: float) -> int:
        """Walk ``card``'s queue up to ``limit``; returns stranded count."""
        nonlocal wasted
        segs = segments[card]
        while segs:
            avail, count = segs[0]
            start = t = max(cursor[card], avail)
            window = count * batch_seconds
            if not health.straggles(card) and t + window <= limit:
                t += window
                busy[card] += window
                completed[card] += count
            else:
                for k in range(count):
                    service = batch_seconds * health.service_factor(
                        card, t, batch_seconds
                    )
                    if t + service > limit:
                        # The crash lands mid-scenario: burn the partial
                        # window, strand this scenario and everything
                        # after it.
                        if t < limit:
                            wasted += limit - t
                            busy[card] += limit - t
                        record(card, start, max(t, limit), k)
                        stranded = (count - k) + sum(c for _, c in segs[1:])
                        segs.clear()
                        cursor[card] = limit
                        return stranded
                    t += service
                    busy[card] += service
                    completed[card] += 1
            record(card, start, t, count)
            cursor[card] = t
            done_time[card] = max(done_time[card], t)
            segs.pop(0)
        return 0

    for crash in plan.crashes:
        stranded = run_until(crash.card, crash.at_s)
        if stranded:
            healthy = health.healthy_cards(crash.at_s)
            if not healthy:
                n_failed += stranded
            else:
                n_repartitions += 1
                n_rescheduled += stranded
                sub = make_scheduler(policy).partition(
                    [1.0] * stranded, len(healthy)
                )
                for slot, chunk in enumerate(sub):
                    if chunk:
                        segments[healthy[slot]].append((crash.at_s, len(chunk)))
                        dispatches_per_card[healthy[slot]] += n_dispatches(
                            len(chunk)
                        )
        # The card resumes (with whatever is later re-sharded to it, if
        # anything) only once repaired.
        cursor[crash.card] = max(cursor[crash.card], crash.down_until_s)

    for card in range(n_cards):
        # Work still queued on a permanently dead card fails.
        n_failed += run_until(card, math.inf)

    dispatches = sum(dispatches_per_card)
    makespan = max(done_time) + link.dispatch_seconds(dispatches)
    n_completed = sum(completed)
    shards = tuple(
        CardShard(
            card_id=card,
            n_scenarios=completed[card],
            dispatches=dispatches_per_card[card],
            seconds=busy[card],
            utilisation=busy[card] / makespan if makespan > 0 else 0.0,
            watts=node.active_watts if busy[card] > 0 else node.idle_watts,
        )
        for card in range(n_cards)
    )
    watts = sum(s.watts for s in shards)
    repricings = n_completed * len(options)
    rollup = dict(
        n_scenarios=n_sharded,
        n_positions=len(options),
        n_cards=n_cards,
        n_active_cards=sum(1 for s in shards if s.n_scenarios),
        policy=policy,
        batch_seconds=batch_seconds,
        makespan_seconds=makespan,
        scenarios_per_second=n_completed / makespan if makespan > 0 else 0.0,
        repricings_per_second=repricings / makespan if makespan > 0 else 0.0,
        total_watts=watts,
        repricings_per_watt=(
            repricings / makespan / watts if makespan > 0 and watts > 0 else 0.0
        ),
        dispatches=dispatches,
        cards=shards,
    )
    if plan.is_empty:
        timing = ClusterTiming(**rollup)
    else:
        timing = FaultedClusterTiming(
            **rollup,
            fault_spec=plan.spec(),
            n_repartitions=n_repartitions,
            n_rescheduled=n_rescheduled,
            n_failed_scenarios=n_failed,
            wasted_seconds=wasted,
        )
    if telemetry is not None:
        _publish_grid(telemetry.metrics, timing, repricings)
    return timing


def _publish_grid(out, timing: ClusterTiming, repricings: int) -> None:
    """The grid roll-up as ``risk_grid_*`` metrics (fault counters too)."""
    counters = [
        ("scenarios_total", "scenarios revalued on the grid", timing.n_scenarios),
        ("dispatches_total", "host dispatches feeding the grid",
         timing.dispatches),
        ("repricings_total", "grid cells (scenario x position)", repricings),
    ]
    gauges = [
        ("makespan_seconds", "slowest card plus serial dispatch",
         timing.makespan_seconds),
        ("batch_seconds", "one scenario's batch cost quantum",
         timing.batch_seconds),
        ("repricings_per_watt", "power efficiency of the run",
         timing.repricings_per_watt),
    ]
    if isinstance(timing, FaultedClusterTiming):
        counters += [
            ("repartitions_total", "card deaths that re-sharded work",
             timing.n_repartitions),
            ("rescheduled_total", "scenarios moved off dead cards",
             timing.n_rescheduled),
            ("failed_scenarios_total", "scenarios stranded by faults",
             timing.n_failed_scenarios),
        ]
        gauges.append(
            ("wasted_seconds", "busy time destroyed by crashes",
             timing.wasted_seconds)
        )
    for name, help_, value in counters:
        out.counter(f"risk_grid_{name}", help_).inc(value)
    for name, help_, value in gauges:
        out.gauge(f"risk_grid_{name}", help_).set(value)
