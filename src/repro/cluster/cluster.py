"""The multi-card cluster system: sharding, contention, roll-ups.

The paper stops at five CDS engines on one Alveo U280 (Table II).  This
module models the next scaling axis the CLUSTER venue implies: a host with
``N`` cards, each running the full Table II multi-engine configuration,
fed by a host-side scheduler that shards the option portfolio card-by-card.

The timing model composes three pieces that already exist one level down:

* each card's chunk makespan comes from the same discrete-event simulation
  as the single-card system (:class:`~repro.engines.multi_engine.
  MultiEngineSystem`), including its intra-card engine contention;
* each card's PCIe time is stretched by the host-path contention factor of
  :class:`~repro.cluster.interconnect.HostLinkModel` — the multi-engine
  contention idiom one level up;
* the host pays a serial dispatch latency per chunk issued.

Batch timing runs on the unified :mod:`repro.sim` core: every card is a
:class:`~repro.sim.Resource` whose chunk occupies one busy window from
``t=0``, and the batch makespan is the latest window edge plus the serial
host dispatch time — pinned bit-identical to the pre-``repro.sim``
roll-up by the timing-conformance suite.

The batch completes when the slowest card finishes — so the scheduler's
load balance, not the aggregate card count, decides the speedup on skewed
portfolios.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.cluster.interconnect import HostLinkModel
from repro.cluster.node import CardReport, ClusterNode
from repro.cluster.scheduler import (
    ClusterScheduler,
    LeastLoadedScheduler,
    make_scheduler,
    validate_partition,
)
from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.core.validation import check_count
from repro.errors import ValidationError
from repro.sim import Resource, Simulation
from repro.workloads.scenarios import PaperScenario

__all__ = ["CDSCluster", "ClusterResult", "option_costs"]


def option_costs(options: list[CDSOption]) -> list[float]:
    """Per-option cost proxy used by every scheduling policy.

    The cost of an option in every engine variant is dominated by its
    payment-schedule length (the trip count of the hazard, discount and
    leg-accumulation loops), so the payment count is the natural
    scheduling weight — available in O(1) per option without building the
    schedule arrays.

    Parameters
    ----------
    options:
        The portfolio to weigh.

    Returns
    -------
    list[float]
        One positive weight per option, in input order.
    """
    return [float(o.n_payments) for o in options]


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster batch: numbers, timing, power.

    Attributes
    ----------
    spreads_bps:
        Par spreads in original portfolio order, identical to a
        single-card run (the scheduler only changes *where* each option is
        priced).
    n_cards / n_active_cards:
        Cards in the cluster / cards that received work.
    policy:
        Scheduling policy name used for the shard.
    makespan_seconds:
        Slowest card's busy time plus serial host dispatch.
    options_per_second:
        Aggregate throughput: portfolio size over the makespan.
    total_watts:
        Sum of card power (idle cards draw shell power).
    options_per_watt:
        Aggregate power efficiency ("Table II extended" final column).
    dispatches:
        Host dispatches performed (one per chunk issued).
    cards:
        Per-card roll-ups, including idle cards; excluded from equality
        comparisons.
    """

    spreads_bps: np.ndarray
    n_cards: int
    n_active_cards: int
    policy: str
    makespan_seconds: float
    options_per_second: float
    total_watts: float
    options_per_watt: float
    dispatches: int
    cards: list[CardReport] = field(default_factory=list, compare=False)

    def summary(self) -> str:
        """One-line aggregate summary."""
        return (
            f"cluster[{self.n_cards} cards, {self.policy}]: "
            f"{self.options_per_second:,.0f} options/s, "
            f"{self.total_watts:.1f} W, "
            f"{self.options_per_watt:,.1f} opt/W "
            f"({len(self.spreads_bps)} options, "
            f"{self.n_active_cards} active card(s))"
        )

    def render(self) -> str:
        """Multi-line report: per-card table plus the aggregate roll-up."""
        lines = [
            f"{'Card':>4} {'Options':>8} {'Busy (ms)':>10} {'Util':>6} "
            f"{'Watts':>7} {'Opt/s':>12}",
            "-" * 52,
        ]
        for c in self.cards:
            lines.append(
                f"{c.card_id:>4} {c.n_options:>8} {c.seconds * 1e3:>10.3f} "
                f"{c.utilisation:>5.0%} {c.watts:>7.2f} "
                f"{c.options_per_second:>12,.0f}"
            )
        lines.append("-" * 52)
        lines.append(
            f"aggregate: {self.options_per_second:,.0f} options/s over "
            f"{self.makespan_seconds * 1e3:.3f} ms  |  "
            f"power {self.total_watts:.2f} W  |  "
            f"{self.options_per_watt:,.1f} opt/W  |  "
            f"policy {self.policy}, {self.dispatches} dispatch(es)"
        )
        return "\n".join(lines)


class CDSCluster:
    """``n_cards`` simulated U280 cards behind one host-side scheduler.

    Parameters
    ----------
    scenario:
        Experimental configuration shared by every card.
    n_cards:
        Cards in the cluster.
    n_engines:
        CDS engines per card (default: the paper's five-engine maximum);
        floorplan-validated per card at construction.
    scheduler:
        Sharding policy — a :class:`~repro.cluster.scheduler.
        ClusterScheduler` instance or a registry name
        (default: ``least-loaded``).
    link:
        Host-path timing model (default :class:`~repro.cluster.
        interconnect.HostLinkModel`).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle: card busy
        windows become spans when it records, and each :meth:`run`
        publishes ``cluster_*`` roll-up metrics into its registry.  The
        result is identical either way.

    Examples
    --------
    >>> from repro.workloads.scenarios import PaperScenario
    >>> cluster = CDSCluster(PaperScenario(n_options=16), n_cards=2)
    >>> result = cluster.run()
    >>> result.spreads_bps.shape
    (16,)
    """

    def __init__(
        self,
        scenario: PaperScenario | None = None,
        *,
        n_cards: int = 2,
        n_engines: int = 5,
        scheduler: ClusterScheduler | str | None = None,
        link: HostLinkModel | None = None,
        telemetry=None,
    ) -> None:
        check_count(n_cards, "n_cards")
        self.scenario = scenario if scenario is not None else PaperScenario()
        self.nodes = [
            ClusterNode(c, self.scenario, n_engines=n_engines)
            for c in range(n_cards)
        ]
        if scheduler is None:
            self.scheduler: ClusterScheduler = LeastLoadedScheduler()
        elif isinstance(scheduler, str):
            self.scheduler = make_scheduler(scheduler)
        else:
            self.scheduler = scheduler
        self.link = link if link is not None else HostLinkModel()
        self.telemetry = telemetry

    @property
    def n_cards(self) -> int:
        """Cards in the cluster."""
        return len(self.nodes)

    @property
    def total_engines(self) -> int:
        """CDS engines across all cards."""
        return sum(node.n_engines for node in self.nodes)

    def run(
        self,
        options: list[CDSOption] | None = None,
        yield_curve: YieldCurve | None = None,
        hazard_curve: HazardCurve | None = None,
    ) -> ClusterResult:
        """Shard, price and roll up one portfolio batch.

        All arguments default to the scenario's workload, mirroring
        :meth:`repro.engines.base.CDSEngineBase.run`.

        Parameters
        ----------
        options:
            Portfolio to price (default: the scenario batch).
        yield_curve / hazard_curve:
            Full rate tables, broadcast to every card.

        Returns
        -------
        ClusterResult
            Merged spreads (input order) plus timing and power roll-ups.
        """
        sc = self.scenario
        options = options if options is not None else sc.options()
        yc = yield_curve if yield_curve is not None else sc.yield_curve()
        hc = hazard_curve if hazard_curve is not None else sc.hazard_curve()
        if not options:
            raise ValidationError("cluster batch needs at least one option")

        assignment = self.scheduler.partition(option_costs(options), self.n_cards)
        if len(assignment) != self.n_cards:
            raise ValidationError(
                f"scheduler returned {len(assignment)} chunks for "
                f"{self.n_cards} cards"
            )
        validate_partition(assignment, len(options))
        active = sum(1 for chunk in assignment if chunk)
        factor = self.link.contention_factor(active)

        # Unified-clock timing: each card is a sim Resource; the chunk's
        # kernel + contended-PCIe time is one busy window reserved from
        # t=0 (all chunks are issued at batch start).
        sim = Simulation()
        recorder = (
            self.telemetry.recorder if self.telemetry is not None else None
        )
        card_resources = [
            Resource(f"card{node.card_id}", sim=sim, recorder=recorder)
            for node in self.nodes
        ]
        spreads = np.empty(len(options), dtype=float)
        reports: list[CardReport] = []
        busy: list[float] = []
        for node, resource, chunk in zip(self.nodes, card_resources, assignment):
            if not chunk:
                reports.append(
                    CardReport(
                        card_id=node.card_id,
                        n_options=0,
                        kernel_seconds=0.0,
                        pcie_seconds=0.0,
                        seconds=0.0,
                        utilisation=0.0,
                        watts=node.idle_watts,
                        options_per_second=0.0,
                    )
                )
                continue
            result = node.price([options[i] for i in chunk], yc, hc)
            spreads[chunk] = result.spreads_bps
            kernel = sc.clock.seconds(result.kernel_cycles)
            pcie = result.pcie_seconds * factor
            window = resource.reserve(
                0.0,
                kernel + pcie,
                span_name="card_batch",
                span_kind="cluster",
                span_args={"options": len(chunk)},
            )
            busy.append(window.done_s)
            reports.append(
                CardReport(
                    card_id=node.card_id,
                    n_options=len(chunk),
                    kernel_seconds=kernel,
                    pcie_seconds=pcie,
                    seconds=resource.busy_seconds,
                    utilisation=0.0,  # filled once the makespan is known
                    watts=node.active_watts,
                    options_per_second=len(chunk) / resource.busy_seconds,
                    result=result,
                )
            )

        dispatches = self.scheduler.dispatches(assignment)
        makespan = max(busy) + self.link.dispatch_seconds(dispatches)
        reports = [
            replace(r, utilisation=r.seconds / makespan) for r in reports
        ]
        # Inline options/watt rather than importing repro.analysis.metrics:
        # the analysis layer imports this package for its scaling table.
        watts = sum(r.watts for r in reports)
        rate = len(options) / makespan
        if self.telemetry is not None:
            out = self.telemetry.metrics
            out.counter(
                "cluster_batches_total", "cluster batches run"
            ).inc()
            out.counter(
                "cluster_options_total", "options priced across batches"
            ).inc(len(options))
            out.counter(
                "cluster_dispatches_total", "host dispatches issued"
            ).inc(dispatches)
            out.gauge(
                "cluster_makespan_seconds", "latest batch makespan"
            ).set(makespan)
            out.gauge(
                "cluster_options_per_second", "latest batch throughput"
            ).set(rate)
            out.gauge(
                "cluster_options_per_watt", "latest batch power efficiency"
            ).set(rate / watts)
        return ClusterResult(
            spreads_bps=spreads,
            n_cards=self.n_cards,
            n_active_cards=active,
            policy=self.scheduler.name,
            makespan_seconds=makespan,
            options_per_second=rate,
            total_watts=watts,
            options_per_watt=rate / watts,
            dispatches=dispatches,
            cards=reports,
        )
