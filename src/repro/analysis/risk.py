"""The risk report: scenario VaR/ES and ladders as an analysis table.

This is the risk-desk counterpart of the paper-table modules: one call
runs the full overnight pipeline — book construction, scenario
generation, cluster-sharded revaluation, aggregation — and returns a
structured :class:`RiskReport` that renders as the ``repro-cds risk``
table or serialises to a JSON-friendly dict.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from collections.abc import Sequence

from repro.errors import ValidationError
from repro.risk.engine import ScenarioRevaluation, ScenarioRiskEngine, make_book
from repro.risk.measures import (
    JTDConcentration,
    SensitivityLadder,
    TailMeasure,
    cs01_ladder,
    ir01_ladder,
    jtd_concentration,
    tail_measures,
)
from repro.risk.scenarios import (
    CALM_STRESSED_REGIMES,
    ScenarioSet,
    historical_replay,
    monte_carlo,
    parallel_shocks,
)
from repro.risk.sharding import ClusterTiming, FaultedClusterTiming
from repro.workloads.history import make_curve_history
from repro.workloads.scenarios import PaperScenario

__all__ = [
    "RISK_GENERATORS",
    "RiskReport",
    "generate_risk_report",
    "render_risk_report",
    "risk_report_dict",
]

#: Scenario-generator registry for the CLI ``--generator`` flag.
RISK_GENERATORS: tuple[str, ...] = ("mc", "mixture", "historical", "parallel")

#: Offset separating the scenario-generation seed from the book seed, so
#: the two never consume the same ``default_rng`` bit stream (which would
#: correlate the book's composition with the shocks it is tested under).
SCENARIO_SEED_OFFSET = 7919


@dataclass(frozen=True)
class RiskReport:
    """Everything the ``repro-cds risk`` subcommand prints.

    Attributes
    ----------
    generator / n_scenarios / n_positions / seed:
        Run configuration: scenario family, grid shape, seed.
    gross_notional:
        Sum of absolute position notionals.
    mean_pnl / std_pnl:
        First two moments of the scenario P&L distribution.
    worst_label / worst_pnl / best_label / best_pnl:
        The distribution's extremes, with their scenario labels.
    measures:
        VaR/ES pairs, one per confidence level.
    cs01 / ir01:
        Bucketed sensitivity ladders with their parallel references.
    jtd:
        Jump-to-default concentration statistics.
    timing:
        Simulated cluster roll-up for the revaluation run.
    batched / chunk_size / backend:
        Host revaluation mode: batched tensor kernel or per-scenario
        loop, the kernel chunk size (``None`` = automatic), and the
        base pricing backend behind the session (registry name).
    host_seconds / scenarios_per_sec:
        Measured wall-clock of the host-side grid revaluation (numerics
        only — the discrete-event cluster simulation runs outside the
        measured window) and the resulting throughput: the real-machine
        number next to the simulated cluster roll-up.
    """

    generator: str
    n_scenarios: int
    n_positions: int
    seed: int
    gross_notional: float
    mean_pnl: float
    std_pnl: float
    worst_label: str
    worst_pnl: float
    best_label: str
    best_pnl: float
    measures: tuple[TailMeasure, ...]
    cs01: SensitivityLadder
    ir01: SensitivityLadder
    jtd: JTDConcentration
    timing: ClusterTiming
    batched: bool
    chunk_size: int | None
    backend: str
    # Measured wall-clock: excluded from equality so deterministic runs
    # still compare equal report-to-report.
    host_seconds: float = field(compare=False, default=0.0)
    scenarios_per_sec: float = field(compare=False, default=0.0)


def _make_scenarios(
    generator: str,
    engine: ScenarioRiskEngine,
    n_scenarios: int,
    seed: int,
) -> ScenarioSet:
    yc, hc = engine.yield_curve, engine.hazard_curve
    seed = seed + SCENARIO_SEED_OFFSET
    if generator == "mc":
        return monte_carlo(yc, hc, n_scenarios, seed=seed)
    if generator == "mixture":
        return monte_carlo(
            yc, hc, n_scenarios, seed=seed, regimes=CALM_STRESSED_REGIMES
        )
    if generator == "historical":
        history = make_curve_history(n_scenarios + 1, seed=seed)
        return historical_replay(yc, hc, history)
    if generator == "parallel":
        return parallel_shocks(yc, hc)
    raise ValidationError(
        f"unknown scenario generator {generator!r}; "
        f"choose from {sorted(RISK_GENERATORS)}"
    )


def generate_risk_report(
    scenario: PaperScenario | None = None,
    *,
    n_scenarios: int = 1000,
    n_cards: int = 4,
    n_engines: int = 5,
    policy: str = "least-loaded",
    workload: str = "heterogeneous",
    generator: str = "mc",
    seed: int = 7,
    confidences: Sequence[float] = (0.95, 0.99),
    batch: bool = True,
    chunk_size: int | None = None,
    backend: str = "vectorized",
    telemetry=None,
    faults=None,
) -> RiskReport:
    """Run the full scenario-risk pipeline and return the report.

    Deterministic in ``seed``: the book, the scenarios and therefore
    every number in the report reproduce exactly (``batch`` and
    ``chunk_size`` only change the wall-clock, never the numbers).

    Parameters
    ----------
    scenario:
        Experimental configuration (default: the paper scenario); its
        ``n_options`` is the book size and its curves the base state.
    n_scenarios:
        Scenarios to draw (for ``parallel`` the ladder size is fixed).
    n_cards / n_engines / policy:
        Cluster shape for the sharded revaluation.
    workload:
        Contract-mix registry key for the book.
    generator:
        Scenario family: ``mc``, ``mixture``, ``historical`` or
        ``parallel``.
    seed:
        Master seed for book and scenario generation.
    confidences:
        VaR/ES confidence levels, in report order.
    batch:
        Revalue with the batched scenario-tensor kernel (default) or the
        per-scenario loop.
    chunk_size:
        Scenarios per kernel chunk (``None`` = automatic sizing).
    backend:
        Base pricing-backend registry name behind the engine's session
        (``vectorized``, ``cpu``, ...); numbers are backend-independent
        up to floating-point reassociation, wall-clock is not.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle: the grid
        replay records spans and metrics into it, and the host kernel is
        profiled (``kernel_*`` metrics, wall vs simulated busy time).
        The report itself is identical either way.
    faults:
        Optional :class:`~repro.faults.FaultPlan` injected into the
        cluster timing replay (crashes re-shard surviving scenarios,
        stragglers stretch the makespan).  Numerics are untouched —
        VaR/ES and the ladders are identical; only the ``timing`` block
        becomes a :class:`~repro.risk.sharding.FaultedClusterTiming`.
    """
    sc = scenario if scenario is not None else PaperScenario()
    book = make_book(workload, sc.n_options, seed=seed)
    engine = ScenarioRiskEngine(
        book,
        sc.yield_curve(),
        sc.hazard_curve(),
        scenario=sc,
        n_cards=n_cards,
        n_engines=n_engines,
        scheduler=policy,
        batch=batch,
        chunk_size=chunk_size,
        backend=backend,
        telemetry=telemetry,
    )
    shocks = _make_scenarios(generator, engine, n_scenarios, seed)
    # Time the host-side numerics alone; the discrete-event cluster
    # simulation runs outside the measured window (it would otherwise
    # dominate scenarios_per_sec and mask the batching speedup).
    if telemetry is not None:
        from repro.telemetry import KernelProfiler

        profiler = KernelProfiler(telemetry.metrics)
        t0 = time.perf_counter()
        with profiler:
            rev: ScenarioRevaluation = engine.revalue(shocks, with_timing=False)
        host_seconds = time.perf_counter() - t0
        timing = engine.simulate_timing(len(shocks), faults=faults)
        profiler.set_simulated_busy(sum(s.seconds for s in timing.cards))
    else:
        t0 = time.perf_counter()
        rev = engine.revalue(shocks, with_timing=False)
        host_seconds = time.perf_counter() - t0
        timing = engine.simulate_timing(len(shocks), faults=faults)
    worst_label, worst_pnl = rev.worst()
    best_label, best_pnl = rev.best()
    return RiskReport(
        generator=shocks.name,
        n_scenarios=len(shocks),
        n_positions=len(book),
        seed=seed,
        gross_notional=book.gross_notional,
        mean_pnl=float(rev.pnl.mean()),
        std_pnl=float(rev.pnl.std()),
        worst_label=worst_label,
        worst_pnl=worst_pnl,
        best_label=best_label,
        best_pnl=best_pnl,
        measures=tail_measures(rev.pnl, confidences),
        cs01=cs01_ladder(engine),
        ir01=ir01_ladder(engine),
        jtd=jtd_concentration(engine),
        timing=timing,
        # Report the mode that ran: a backend without batch-tensor
        # support runs the per-scenario path even when asked to batch
        # (the risk engine checks the flag).
        batched=batch and engine.session.capabilities.supports_batch_tensor,
        chunk_size=chunk_size,
        backend=backend,
        host_seconds=host_seconds,
        scenarios_per_sec=len(shocks) / host_seconds if host_seconds > 0 else 0.0,
    )


def render_risk_report(
    report: RiskReport, *, measures: Sequence[str] = ("var", "es")
) -> str:
    """Text rendering of the risk report.

    Parameters
    ----------
    report:
        Output of :func:`generate_risk_report`.
    measures:
        Which tail measures to print (subset of ``{"var", "es"}``); the
        ladders, extremes and concentration block always print.
    """
    unknown = set(measures) - {"var", "es"}
    if unknown:
        raise ValidationError(
            f"unknown measures {sorted(unknown)}; choose from ['es', 'var']"
        )
    lines = [
        f"Risk report — {report.n_scenarios} {report.generator} scenario(s) x "
        f"{report.n_positions} position(s), seed {report.seed}",
        f"  gross notional {report.gross_notional:,.2f}  |  "
        f"P&L mean {report.mean_pnl:+.6f}, std {report.std_pnl:.6f}",
        f"  worst {report.worst_pnl:+.6f} ({report.worst_label})  |  "
        f"best {report.best_pnl:+.6f} ({report.best_label})",
        "",
    ]
    if measures:
        header = f"{'Confidence':>10}"
        if "var" in measures:
            header += f" {'VaR':>12}"
        if "es" in measures:
            header += f" {'ES':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for m in report.measures:
            row = f"{m.confidence:>10.2%}"
            if "var" in measures:
                row += f" {m.var:>12.6f}"
            if "es" in measures:
                row += f" {m.es:>12.6f}"
            lines.append(row)
        lines.append("")
    lines.append(report.cs01.render())
    lines.append(report.ir01.render())
    lines.append(
        f"JTD: net {report.jtd.net:+.4f}, gross {report.jtd.gross:.4f}, "
        f"largest {report.jtd.largest:.4f} (position {report.jtd.largest_index}), "
        f"top-{report.jtd.top_n} share {report.jtd.top_share:.0%}, "
        f"HHI {report.jtd.herfindahl:.3f}"
    )
    lines.append(report.timing.summary())
    if isinstance(report.timing, FaultedClusterTiming):
        t = report.timing
        lines.append(
            f"faults [{t.fault_spec}]: {t.n_repartitions} repartition(s), "
            f"{t.n_rescheduled} scenario(s) rescheduled, "
            f"{t.n_failed_scenarios} failed, "
            f"{t.wasted_seconds * 1e3:.3f} ms wasted"
        )
    # Text output stays byte-deterministic for a fixed seed, so the
    # measured wall-clock numbers (host_seconds / scenarios_per_sec) are
    # surfaced via --json only; here we state the mode.
    mode = "batched" if report.batched else "looped"
    chunk = "auto" if report.chunk_size is None else str(report.chunk_size)
    lines.append(
        f"host revaluation: {mode} (chunk {chunk}, backend {report.backend})"
    )
    return "\n".join(lines)


def risk_report_dict(report: RiskReport) -> dict:
    """JSON-friendly dict of the full report (plain python scalars)."""
    return asdict(report)
