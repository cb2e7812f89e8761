"""The replay reports' shared front end, and the serving report.

``repro-cds serve``, ``simulate`` and ``gateway`` each replay a seeded
request stream over one book and one market tape, and report alike.
What they share lives here: the :class:`ReplayReport` fields that echo
the run's configuration and host wall-clock, :func:`replay_inputs`
(the scenario, book and tape, seeded from the report seed),
:func:`timed_serve` (one quote-server replay against the host clock,
kernel-profiled under telemetry) and :func:`fault_keys` (the JSON keys
of a faulted run).  Latency blocks and per-card rows serialise with
:func:`dataclasses.asdict`, in their dataclass field order.

The serving report is the serving-desk counterpart of
:mod:`repro.analysis.risk`: one call builds the book, the market tape
and the request stream, replays the stream through a
:class:`~repro.serving.engine.QuoteServer`, and returns a structured
:class:`ServingReport` that renders as the ``repro-cds serve`` table or
serialises to a JSON-friendly dict.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.risk.engine import make_book
from repro.serving.engine import QuoteServer
from repro.serving.metrics import ServingResult
from repro.serving.workload import make_market_tape, make_request_stream
from repro.cluster.batching import BatchQueue
from repro.workloads.scenarios import PaperScenario

__all__ = [
    "ReplayReport",
    "ServingReport",
    "generate_serving_report",
    "render_serving_report",
    "serving_report_dict",
]

#: Offsets separating the tape and stream seeds from the book seed, so
#: no two generators consume the same ``default_rng`` bit stream.
TAPE_SEED_OFFSET = 4099
STREAM_SEED_OFFSET = 9973


@dataclass(frozen=True, kw_only=True)
class ReplayReport:
    """What every replay report echoes of its run.

    Attributes
    ----------
    traffic / rate_hz / n_requests / seed:
        Offered-load configuration (aggregate across a gateway's
        tenants).
    n_cards / n_engines / policy:
        Cluster shape (each server's, behind a gateway) and
        row-sharding policy.
    max_batch / max_delay_s / queue_depth:
        Coalescing and admission-control policy (each server's).
    n_states / n_positions:
        Market-tape length and book size.
    backend:
        Base pricing-backend registry name behind every server.
    host_seconds:
        Measured wall-clock of the host-side replay (numerics plus event
        loop; excluded from equality so deterministic runs still compare
        equal).
    fault_spec:
        The injected :class:`~repro.faults.FaultPlan`'s spec ("" on
        fault-free runs).
    """

    traffic: str
    rate_hz: float
    n_requests: int
    seed: int
    n_cards: int
    n_engines: int
    policy: str
    max_batch: int
    max_delay_s: float
    queue_depth: int
    n_states: int
    n_positions: int
    backend: str
    host_seconds: float = field(compare=False, default=0.0)
    fault_spec: str = ""

    @property
    def requests_per_sec_host(self) -> float:
        """Offered requests per second of :attr:`host_seconds` (0 when
        unmeasured)."""
        return self.n_requests / self.host_seconds if self.host_seconds > 0 else 0.0


@dataclass(frozen=True, kw_only=True)
class ServingReport(ReplayReport):
    """Everything the ``repro-cds serve`` subcommand prints.

    Attributes
    ----------
    result:
        The aggregate :class:`~repro.serving.metrics.ServingResult`.
    fault_report:
        The :class:`~repro.faults.FaultReport` of a faulted run; None on
        fault-free runs, so those reports compare (and serialise)
        exactly as before.
    """

    result: ServingResult
    fault_report: object | None = None


def replay_inputs(
    scenario: PaperScenario | None, workload: str, n_states: int, seed: int
):
    """``(scenario, book, tape)`` of a replay report: the scenario
    (default: the paper's), its ``workload`` book and an ``n_states``
    market tape, both seeded from the report ``seed``."""
    sc = scenario if scenario is not None else PaperScenario()
    book = make_book(workload, sc.n_options, seed=seed)
    tape = make_market_tape(
        sc.yield_curve(), sc.hazard_curve(), n_states, seed=seed + TAPE_SEED_OFFSET
    )
    return sc, book, tape


def timed_serve(server: QuoteServer, requests, telemetry, **serve_keywords) -> dict:
    """Replay ``requests`` on ``server`` against the host clock.

    With a :class:`~repro.telemetry.Telemetry` handle the host kernel is
    profiled too (``kernel_*`` metrics, wall versus simulated busy
    time).  Returns the report fields the replay fills in: ``result``,
    ``host_seconds``, ``fault_spec`` and ``fault_report``.
    """
    t0 = time.perf_counter()
    if telemetry is None:
        result = server.serve(requests, **serve_keywords)
    else:
        from repro.telemetry import KernelProfiler

        profiler = KernelProfiler(telemetry.metrics)
        with profiler:
            result = server.serve(requests, **serve_keywords)
        profiler.set_simulated_busy(sum(c.busy_seconds for c in result.cards))
    host_seconds = time.perf_counter() - t0
    fault_report = server.last_fault_report
    return dict(
        result=result,
        host_seconds=host_seconds,
        fault_spec=fault_report.spec if fault_report is not None else "",
        fault_report=fault_report,
    )


def fault_keys(report) -> dict:
    """The JSON keys of a faulted run (``n_failed``, ``shed_reasons``,
    ``faults``); none on a fault-free run, so its JSON keeps the
    historical key set."""
    if report.fault_report is None:
        return {}
    return {
        "n_failed": report.result.n_failed,
        "shed_reasons": report.result.shed_reason_counts(),
        "faults": report.fault_report.to_dict(),
    }


def generate_serving_report(
    scenario: PaperScenario | None = None,
    *,
    n_requests: int = 10_000,
    rate_hz: float = 5_000.0,
    n_cards: int = 4,
    n_engines: int = 5,
    policy: str = "least-loaded",
    workload: str = "heterogeneous",
    traffic: str = "poisson",
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
    monitor=None,
) -> ServingReport:
    """Run the full serving pipeline and return the report.

    Deterministic in ``seed``: the book, the tape, the request stream
    and therefore every simulated number reproduce exactly (only the
    measured ``host_seconds`` varies run to run).

    Parameters
    ----------
    scenario:
        Experimental configuration (default: the paper scenario); its
        ``n_options`` is the book size.
    n_requests / rate_hz / traffic:
        Offered load: trace length, mean arrival rate, arrival process.
    n_cards / n_engines / policy:
        Cluster shape and per-batch row-sharding policy.
    workload:
        Contract-mix registry key for the book.
    max_batch / max_delay_s:
        Size-or-linger coalescing policy.
    queue_depth:
        Bound on admitted-but-incomplete requests (backpressure).
    n_states:
        Market-tape length.
    seed:
        Master seed for book, tape and stream.
    chunk_size:
        Kernel chunk size for the host numerics (``None`` = automatic).
    backend:
        Base pricing-backend registry name (must advertise
        ``supports_streaming``; see :mod:`repro.api`).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle: the replay
        records spans and metrics into it, and the host kernel is
        profiled (``kernel_*`` metrics, wall vs simulated busy time).
        The report itself is identical either way.
    faults / hedge / retry:
        Optional :class:`~repro.faults.FaultPlan` plus hedging/retry
        policies, forwarded to :meth:`~repro.serving.engine.QuoteServer.
        serve`.  ``None`` (or an empty plan) keeps the legacy replay
        byte-identical.
    monitor:
        Optional :class:`~repro.monitor.Monitor`, forwarded to
        :meth:`~repro.serving.engine.QuoteServer.serve`; the evaluation
        lands on ``monitor.result`` and the report itself is identical
        either way.
    """
    sc, book, tape = replay_inputs(scenario, workload, n_states, seed)
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
    requests = make_request_stream(
        n_requests,
        rate_hz=rate_hz,
        n_states=n_states,
        n_positions=len(book),
        traffic=traffic,
        seed=seed + STREAM_SEED_OFFSET,
    )
    replay = timed_serve(
        server, requests, telemetry, faults=faults, hedge=hedge, retry=retry,
        monitor=monitor,
    )
    return ServingReport(
        traffic=traffic,
        rate_hz=rate_hz,
        n_requests=n_requests,
        seed=seed,
        n_cards=n_cards,
        n_engines=n_engines,
        policy=server.scheduler.name,
        max_batch=max_batch,
        max_delay_s=max_delay_s,
        queue_depth=queue_depth,
        n_states=n_states,
        n_positions=len(book),
        backend=backend,
        **replay,
    )


def render_serving_report(report: ServingReport) -> str:
    """Text rendering of the serving report (byte-deterministic).

    The measured host wall-clock is surfaced via ``--json`` only, so a
    fixed seed reproduces this text exactly.
    """
    r = report.result
    lines = [
        f"Serving report — {report.n_requests} requests at "
        f"{report.rate_hz:,.0f} req/s ({report.traffic}), "
        f"{report.n_cards} card(s) x {report.n_engines} engine(s), "
        f"seed {report.seed}",
        f"  book {report.n_positions} position(s), market tape "
        f"{report.n_states} state(s), policy {report.policy}",
        f"  coalescing: max batch {report.max_batch}, max delay "
        f"{report.max_delay_s * 1e3:g} ms, queue depth {report.queue_depth}, "
        f"backend {report.backend}",
        r.render(),
    ]
    if report.fault_report is not None:
        fr = report.fault_report
        c = fr.counters
        lines.append(f"  faults: {fr.spec}")
        lines.append(
            f"    retries {c.n_retries}, hedges {c.n_hedges} "
            f"({c.n_hedge_wins} won), breaker trips {c.n_breaker_trips}, "
            f"failed requests {c.n_failed_requests}, degraded sheds "
            f"{c.n_shed_degraded}"
        )
        recovery = (
            f"{fr.recovery_time_s * 1e3:.3f} ms"
            if fr.recovery_time_s is not None
            else "never"
        )
        lines.append(
            f"    duplicate work {c.duplicate_work_ratio:.1%}, "
            f"recovery {recovery}"
        )
        for phase in fr.phases:
            lines.append(
                f"    {phase.name:>7}: {phase.n_completed} done, "
                f"goodput {phase.goodput_rps:,.0f} req/s, "
                f"p99 {phase.p99_latency_ms:.3f} ms"
            )
    return "\n".join(lines)


def serving_report_dict(report: ServingReport) -> dict:
    """JSON-friendly dict of the report (raw responses/sheds excluded).

    Fault keys (``n_failed``, ``shed_reasons``, ``faults``) appear only
    when a fault plan was injected, so fault-free JSON is byte-identical
    to the historical output.
    """
    r = report.result
    return {
        "traffic": report.traffic,
        "rate_hz": report.rate_hz,
        "n_requests": report.n_requests,
        "seed": report.seed,
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
        "n_deadline_met": r.n_deadline_met,
        "n_late": r.n_late,
        "span_seconds": r.span_seconds,
        "throughput_rps": r.throughput_rps,
        "goodput_rps": r.goodput_rps,
        "shed_rate": r.shed_rate,
        "deadline_hit_rate": r.deadline_hit_rate,
        "latency": asdict(r.latency),
        "n_dispatches": r.n_dispatches,
        "mean_batch_requests": r.mean_batch_requests,
        "mean_batch_rows": r.mean_batch_rows,
        "per_card": [asdict(c) for c in r.cards],
        "host_seconds": report.host_seconds,
        "requests_per_sec_host": report.requests_per_sec_host,
        **fault_keys(report),
    }
