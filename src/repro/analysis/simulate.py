"""The mixed-workload simulation report: quotes and risk on one cluster.

The ``repro-cds simulate`` scenario: a bursty live-quote stream and a
periodic risk-refresh heartbeat share one cluster through one
:class:`~repro.serving.engine.QuoteServer` — both workloads' arrivals,
linger timers and card busy windows on the **same**
:class:`~repro.sim.Simulation` clock (the unified event loop the
``repro.sim`` rebuild exists for).  The report answers the capacity
question neither single-workload command can: what does the periodic
batch work cost the quote tail, and what latency does the risk desk see
in return?

Follows the :mod:`repro.analysis.serving` pattern: one ``generate_*``
call, a deterministic text rendering, a JSON-friendly dict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.serving import STREAM_SEED_OFFSET, TAPE_SEED_OFFSET
from repro.cluster.batching import BatchQueue
from repro.core.validation import check_positive_finite
from repro.errors import ValidationError
from repro.risk.engine import make_book
from repro.serving.engine import QuoteServer
from repro.serving.metrics import KindStats, ServingResult, per_kind_stats
from repro.serving.workload import (
    make_market_tape,
    make_request_stream,
    make_risk_refresh_stream,
)
from repro.workloads.scenarios import PaperScenario
from repro.workloads.traffic import TRAFFIC_PROCESSES

__all__ = [
    "SimulationReport",
    "generate_simulation_report",
    "render_simulation_report",
    "simulation_report_dict",
]

#: Seed offset keeping the refresh rows off the book, tape and quote
#: stream bit streams.
REFRESH_SEED_OFFSET = 28019


@dataclass(frozen=True)
class SimulationReport:
    """Everything the ``repro-cds simulate`` subcommand prints.

    Attributes
    ----------
    traffic / rate_hz / n_requests / seed:
        Quote-side offered load.
    refresh_period_s / n_refreshes / refresh_rows:
        Risk-side heartbeat: period, stream length (derived from the
        quote trace's span), market rows per refresh.
    n_cards / n_engines / policy:
        Cluster shape and row-sharding policy.
    max_batch / max_delay_s / queue_depth:
        Coalescing and admission-control policy.
    n_states / n_positions:
        Market-tape length and book size.
    backend:
        Base pricing-backend registry name behind the server's session.
    result:
        The aggregate :class:`~repro.serving.metrics.ServingResult` over
        both workloads.
    kinds:
        Per-workload breakdown (quotes versus risk refreshes).
    host_seconds:
        Measured wall-clock of the host-side replay (excluded from
        equality so deterministic runs still compare equal).
    fault_spec / fault_report:
        The injected :class:`~repro.faults.FaultPlan` spec and the
        resulting :class:`~repro.faults.FaultReport`; both empty/None on
        fault-free runs.
    """

    traffic: str
    rate_hz: float
    n_requests: int
    seed: int
    refresh_period_s: float
    n_refreshes: int
    refresh_rows: int
    n_cards: int
    n_engines: int
    policy: str
    max_batch: int
    max_delay_s: float
    queue_depth: int
    n_states: int
    n_positions: int
    backend: str
    result: ServingResult
    kinds: tuple[KindStats, ...]
    host_seconds: float = field(compare=False, default=0.0)
    fault_spec: str = ""
    fault_report: object | None = None


def generate_simulation_report(
    scenario: PaperScenario | None = None,
    *,
    n_requests: int = 8_000,
    rate_hz: float = 20_000.0,
    traffic: str = "bursty",
    refresh_period_s: float = 2e-3,
    refresh_rows: int = 16,
    n_cards: int = 4,
    n_engines: int = 5,
    policy: str = "least-loaded",
    workload: str = "heterogeneous",
    max_batch: int = 128,
    max_delay_s: float = 1e-3,
    queue_depth: int = 4096,
    n_states: int = 256,
    seed: int = 17,
    chunk_size: int | None = None,
    backend: str = "vectorized",
    telemetry=None,
    faults=None,
    hedge=None,
    retry=None,
) -> SimulationReport:
    """Replay quotes plus periodic risk refreshes on one cluster.

    The quote stream is pure single-name quotes (the reval/var mix of
    ``repro-cds serve`` is replaced by the explicit heartbeat); risk
    refreshes arrive every ``refresh_period_s`` from one period in until
    the last quote, each a VaR over ``refresh_rows`` fresh tape rows.
    Deterministic in ``seed``: only ``host_seconds`` varies run to run.

    Parameters
    ----------
    scenario:
        Experimental configuration (default: the paper scenario); its
        ``n_options`` is the book size.
    n_requests / rate_hz / traffic:
        Quote-side offered load (default: bursty — the regime where the
        shared cluster is interesting).
    refresh_period_s / refresh_rows:
        Risk-side heartbeat period and VaR sample width.
    n_cards / n_engines / policy:
        Cluster shape and per-batch row-sharding policy.
    workload:
        Contract-mix registry key for the book.
    max_batch / max_delay_s / queue_depth:
        Coalescing and admission-control policy.
    n_states:
        Market-tape length.
    seed:
        Master seed for book, tape and both streams.
    chunk_size:
        Kernel chunk size for the host numerics (``None`` = automatic).
    backend:
        Base pricing-backend registry name (must advertise
        ``supports_streaming``).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle: the replay
        records spans and metrics into it, and the host kernel is
        profiled (``kernel_*`` metrics, wall vs simulated busy time).
        The report itself is identical either way.
    faults / hedge / retry:
        Optional :class:`~repro.faults.FaultPlan` plus hedging/retry
        policies, forwarded to :meth:`~repro.serving.engine.QuoteServer.
        serve`.  The degradation ladder sheds the risk heartbeat before
        quotes when capacity is reduced.
    """
    if traffic not in TRAFFIC_PROCESSES:
        raise ValidationError(
            f"unknown traffic process {traffic!r}; "
            f"choose from {sorted(TRAFFIC_PROCESSES)}"
        )
    check_positive_finite(refresh_period_s, "refresh_period_s")
    sc = scenario if scenario is not None else PaperScenario()
    book = make_book(workload, sc.n_options, seed=seed)
    tape = make_market_tape(
        sc.yield_curve(), sc.hazard_curve(), n_states,
        seed=seed + TAPE_SEED_OFFSET,
    )
    server = QuoteServer(
        book,
        tape,
        scenario=sc,
        n_cards=n_cards,
        n_engines=n_engines,
        scheduler=policy,
        queue=BatchQueue(max_batch=max_batch, linger_s=max_delay_s),
        queue_depth=queue_depth,
        chunk_size=chunk_size,
        backend=backend,
        telemetry=telemetry,
    )
    quotes = make_request_stream(
        n_requests,
        rate_hz=rate_hz,
        n_states=n_states,
        n_positions=len(book),
        traffic=traffic,
        mix=(1.0, 0.0, 0.0),
        seed=seed + STREAM_SEED_OFFSET,
    )
    # The heartbeat runs for the quote trace's span: first refresh one
    # period in, last no later than the final quote arrival.
    span = quotes[-1].arrival_s
    n_refreshes = max(1, int(span / refresh_period_s))
    refreshes = make_risk_refresh_stream(
        n_refreshes,
        period_s=refresh_period_s,
        n_states=n_states,
        var_rows=refresh_rows,
        request_id_base=n_requests,
        seed=seed + REFRESH_SEED_OFFSET,
    )
    t0 = time.perf_counter()
    if telemetry is not None:
        from repro.telemetry import KernelProfiler

        profiler = KernelProfiler(telemetry.metrics)
        with profiler:
            result = server.serve(
                quotes + refreshes, faults=faults, hedge=hedge, retry=retry
            )
        profiler.set_simulated_busy(
            sum(c.busy_seconds for c in result.cards)
        )
    else:
        result = server.serve(
            quotes + refreshes, faults=faults, hedge=hedge, retry=retry
        )
    host_seconds = time.perf_counter() - t0
    fault_report = server.last_fault_report
    return SimulationReport(
        traffic=traffic,
        rate_hz=rate_hz,
        n_requests=n_requests,
        seed=seed,
        refresh_period_s=refresh_period_s,
        n_refreshes=n_refreshes,
        refresh_rows=refresh_rows,
        n_cards=n_cards,
        n_engines=n_engines,
        policy=server.scheduler.name,
        max_batch=max_batch,
        max_delay_s=max_delay_s,
        queue_depth=queue_depth,
        n_states=n_states,
        n_positions=len(book),
        backend=backend,
        result=result,
        kinds=per_kind_stats(result),
        host_seconds=host_seconds,
        fault_spec=fault_report.spec if fault_report is not None else "",
        fault_report=fault_report,
    )


def render_simulation_report(report: SimulationReport) -> str:
    """Text rendering of the simulation report (byte-deterministic).

    The measured host wall-clock is surfaced via ``--json`` only, so a
    fixed seed reproduces this text exactly.
    """
    r = report.result
    lines = [
        f"Mixed-workload simulation — {report.n_requests} quotes at "
        f"{report.rate_hz:,.0f} req/s ({report.traffic}) + "
        f"{report.n_refreshes} risk refreshes every "
        f"{report.refresh_period_s * 1e3:g} ms, "
        f"{report.n_cards} card(s) x {report.n_engines} engine(s), "
        f"seed {report.seed}",
        f"  book {report.n_positions} position(s), market tape "
        f"{report.n_states} state(s), refresh VaR over "
        f"{report.refresh_rows} row(s), policy {report.policy}",
        f"  coalescing: max batch {report.max_batch}, max delay "
        f"{report.max_delay_s * 1e3:g} ms, queue depth {report.queue_depth}, "
        f"backend {report.backend}",
        f"  {'Workload':>8} {'Offered':>8} {'Done':>6} {'Shed':>5} "
        f"{'Hit':>6} {'Goodput':>10} {'p50(ms)':>8} {'p99(ms)':>8}",
    ]
    for k in report.kinds:
        lines.append(
            f"  {k.kind:>8} {k.n_offered:>8} {k.n_completed:>6} "
            f"{k.n_shed:>5} {k.deadline_hit_rate:>6.1%} "
            f"{k.goodput_rps:>10,.0f} {k.latency.p50_s * 1e3:>8.3f} "
            f"{k.latency.p99_s * 1e3:>8.3f}"
        )
    lines.append(r.render())
    if report.fault_report is not None:
        fr = report.fault_report
        c = fr.counters
        recovery = (
            f"{fr.recovery_time_s * 1e3:.3f} ms"
            if fr.recovery_time_s is not None
            else "never"
        )
        lines.append(
            f"  faults [{fr.spec}]: retries {c.n_retries}, hedges "
            f"{c.n_hedges}, breaker trips {c.n_breaker_trips}, failed "
            f"{c.n_failed_requests}, degraded sheds {c.n_shed_degraded}, "
            f"recovery {recovery}"
        )
    return "\n".join(lines)


def simulation_report_dict(report: SimulationReport) -> dict:
    """JSON-friendly dict of the report (raw responses/sheds excluded).

    Fault keys appear only when a plan was injected, so fault-free JSON
    is byte-identical to the historical output.
    """
    r = report.result
    out = {
        "traffic": report.traffic,
        "rate_hz": report.rate_hz,
        "n_requests": report.n_requests,
        "seed": report.seed,
        "refresh_period_s": report.refresh_period_s,
        "n_refreshes": report.n_refreshes,
        "refresh_rows": report.refresh_rows,
        "n_cards": report.n_cards,
        "n_engines": report.n_engines,
        "policy": report.policy,
        "max_batch": report.max_batch,
        "max_delay_s": report.max_delay_s,
        "queue_depth": report.queue_depth,
        "n_states": report.n_states,
        "n_positions": report.n_positions,
        "backend": report.backend,
        "n_offered": r.n_offered,
        "n_completed": r.n_completed,
        "n_shed_queue": r.n_shed_queue,
        "n_shed_deadline": r.n_shed_deadline,
        "span_seconds": r.span_seconds,
        "throughput_rps": r.throughput_rps,
        "goodput_rps": r.goodput_rps,
        "shed_rate": r.shed_rate,
        "deadline_hit_rate": r.deadline_hit_rate,
        "n_dispatches": r.n_dispatches,
        "mean_batch_requests": r.mean_batch_requests,
        "mean_batch_rows": r.mean_batch_rows,
        "per_workload": [
            {
                "kind": k.kind,
                "n_offered": k.n_offered,
                "n_completed": k.n_completed,
                "n_shed": k.n_shed,
                "n_deadline_met": k.n_deadline_met,
                "goodput_rps": k.goodput_rps,
                "deadline_hit_rate": k.deadline_hit_rate,
                "p50_s": k.latency.p50_s,
                "p95_s": k.latency.p95_s,
                "p99_s": k.latency.p99_s,
            }
            for k in report.kinds
        ],
        "per_card": [
            {
                "card_id": c.card_id,
                "dispatches": c.dispatches,
                "n_rows": c.n_rows,
                "n_cells": c.n_cells,
                "busy_seconds": c.busy_seconds,
                "utilisation": c.utilisation,
            }
            for c in r.cards
        ],
        "host_seconds": report.host_seconds,
    }
    if report.fault_report is not None:
        out["n_failed"] = r.n_failed
        out["shed_reasons"] = r.shed_reason_counts()
        out["faults"] = report.fault_report.to_dict()
    return out
