"""Command-line interface: ``python -m repro`` or the ``repro-cds`` script.

Each subcommand is declared once, in :data:`COMMANDS`: its ``--help``
line, its flags in ``--help`` order, and what runs it.  The commands
cover the paper (``table1``, ``table2``, ``figures``, ``price``,
``report``), the simulated cluster (``cluster``), the replay reports
(``risk``, ``serve``, ``simulate``, ``gateway``, ``chaos``), monitoring
(``dashboard``, ``bench-check``, ``trace``) and the backend registry
(``backends``).  The five replay reports share one run path,
:class:`Report`.  ``repro-cds --help`` lists the commands; README.md
walks through each with examples.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.errors import ReproError, ValidationError
from repro.workloads.scenarios import PaperScenario

__all__ = ["main", "build_parser"]


def _json_default(obj):
    """Serialise the numpy scalars/arrays that reach JSON payloads."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, default=_json_default))


def _backend_choices() -> tuple[str, ...]:
    """Base backends selectable from the CLI.

    ``cluster`` is excluded: the risk and serving commands already shard
    across ``--cards``, and the wrapper's numbers are its base's.
    """
    from repro.api import available_backends

    return tuple(n for n in available_backends() if n != "cluster")


#: One declared ``add_argument`` call: the flag names and the keywords.
Flag = tuple[tuple[str, ...], dict]


def _flag(*names: str, **kwargs) -> Flag:
    return names, kwargs


SEED = _flag(
    "--seed",
    type=int,
    default=None,
    help="override the scenario/workload seed for a reproducible run",
)
JSON = _flag(
    "--json",
    action="store_true",
    help="emit machine-readable JSON rows instead of the text table",
)
POLICY = _flag(
    "--policy",
    choices=("round-robin", "least-loaded", "work-stealing"),
    default="least-loaded",
    help="cluster sharding policy",
)


def _workload(default: str) -> Flag:
    return _flag(
        "--workload",
        choices=("uniform", "skewed", "heterogeneous"),
        default=default,
        help="contract mix of the portfolio",
    )


CHUNK = _flag(
    "--chunk-size",
    type=int,
    default=None,
    metavar="N",
    help="market states per batched-kernel chunk (bounds peak "
    "memory; default: automatic sizing)",
)
#: ``choices`` is read from the :mod:`repro.api` registry when the
#: parser is built.
BACKEND = _flag(
    "--backend",
    choices=_backend_choices,
    default="vectorized",
    help="base pricing backend from the repro.api registry",
)
#: Record spans and metrics during the run and write a Chrome trace JSON
#: (Perfetto-loadable) and/or a metrics snapshot.  Recording never
#: changes the report itself.
TELEMETRY = (
    _flag(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record simulated-time spans and write a Chrome "
        "trace-event JSON (open with Perfetto or repro-cds trace)",
    ),
    _flag(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="record run metrics and write a versioned JSON snapshot",
    ),
)
#: A deterministic fault plan injected into the timing replay (see
#: :mod:`repro.faults`).
FAULTS = _flag(
    "--faults",
    default=None,
    metavar="SPEC",
    help="inject a deterministic fault plan, e.g. "
    "'crash:card=1,at=0.1,repair=0.1;slow:card=2,at=0.2,for=0.1,"
    "factor=4' (see docs/robustness.md for the grammar)",
)
HEDGE = _flag(
    "--hedge",
    action="store_true",
    help="hedge the slowest straggler chunk onto a second card "
    "(fault-injection runs only)",
)

#: Replay flags several commands share, declared once: argparse keywords
#: by destination (the flag is ``--`` plus the dashed destination).
_REPLAY_FLAGS = {
    "requests": {"type": int, "help": "request-trace length"},
    "rate": {"type": float, "help": "offered arrival rate (requests per second)"},
    "traffic": {
        "choices": ("poisson", "bursty", "diurnal"),
        "help": "arrival process of the request stream",
    },
    "cards": {
        "type": int,
        "help": "cards in the cluster (per server replica behind a gateway)",
    },
    "engines": {"type": int, "help": "CDS engines per card (paper maximum: 5)"},
    "max_batch": {
        "type": int,
        "help": "coalescer size trigger (1 disables micro-batching)",
    },
    "max_delay": {
        "type": float,
        "metavar": "SECONDS",
        "help": "coalescer linger bound on the oldest pending request",
    },
    "queue_depth": {
        "type": int,
        "help": "admission bound on outstanding requests per server",
    },
    "states": {
        "type": int,
        "help": "market-tape length (distinct live market states)",
    },
}

#: The generator keyword each shared flag feeds, by destination: a
#: replay forwards every one of these flags its command has.
_KEYWORDS = dict(
    requests="n_requests", rate="rate_hz", traffic="traffic", cards="n_cards",
    engines="n_engines", max_batch="max_batch", max_delay="max_delay_s",
    queue_depth="queue_depth", states="n_states", policy="policy",
    workload="workload", chunk_size="chunk_size", backend="backend",
)


def _replay(**defaults) -> tuple[Flag, ...]:
    """A command's replay flags, in ``--help`` order, with its defaults."""
    return tuple(
        _flag("--" + dest.replace("_", "-"), default=default, **_REPLAY_FLAGS[dest])
        for dest, default in defaults.items()
    )


_SERVE_REPLAY = dict(
    cards=4, engines=5, requests=10_000, rate=5000.0, traffic="poisson",
    max_batch=128, max_delay=1e-3, queue_depth=4096, states=256,
)


def _replay_keywords(args: argparse.Namespace, seed: int) -> dict:
    """The generator keywords the command's shared flags give, plus the
    fault plan (and hedging policy) ``--faults`` (and ``--hedge``) ask for."""
    flags = vars(args)
    keywords = {_KEYWORDS[d]: value for d, value in flags.items() if d in _KEYWORDS}
    if flags.get("faults"):
        from repro.faults import FaultPlan, HedgePolicy

        keywords["faults"] = FaultPlan.from_spec(flags["faults"], seed=seed)
        if flags.get("hedge"):
            keywords["hedge"] = HedgePolicy(enabled=True)
    return keywords


@contextmanager
def _writing(flag: str):
    """Turn an OS error writing ``flag``'s file (missing directory, no
    permission) into a clean CLI error naming the flag."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {flag} file: {exc}") from exc


@dataclass(frozen=True)
class Report:
    """The one run path of the replay reports.

    ``load(args)`` imports the report's ``(generate, render, to_dict)``
    triple.  ``generate`` gets the scenario, the seed (``--seed``, else
    ``seed``), the telemetry and fault plan the flags ask for, the
    shared flags the command has and ``keywords(args)``; the report is
    printed as JSON or text, then the telemetry files and whatever
    ``finish(args, report, seed)`` writes.
    """

    load: Callable[[argparse.Namespace], tuple[Callable, Callable, Callable]]
    seed: int
    keywords: Callable[[argparse.Namespace], dict] = lambda args: {}
    finish: Callable[[argparse.Namespace, object, int], None] | None = None

    def __call__(self, args: argparse.Namespace, sc: PaperScenario) -> int:
        generate, render, to_dict = self.load(args)
        seed = args.seed if args.seed is not None else self.seed
        telemetry = None
        if args.trace_out is not None or args.metrics_out is not None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry.recording()
        report = generate(
            sc,
            seed=seed,
            telemetry=telemetry,
            **_replay_keywords(args, seed),
            **self.keywords(args),
        )
        if args.json:
            _print_json(to_dict(report))
        else:
            print(render(report))
        if telemetry is not None:
            from repro.telemetry import write_chrome_trace, write_metrics_snapshot

            if args.trace_out is not None:
                with _writing("--trace-out"):
                    write_chrome_trace(args.trace_out, telemetry.recorder)
                print(f"wrote trace: {args.trace_out}", file=sys.stderr)
            if args.metrics_out is not None:
                with _writing("--metrics-out"):
                    write_metrics_snapshot(args.metrics_out, telemetry.metrics)
                print(f"wrote metrics: {args.metrics_out}", file=sys.stderr)
        if self.finish is not None:
            self.finish(args, report, seed)
        return 0


# Each replay report's (generate, render, to_dict), imported on first use.


def _risk_report(args: argparse.Namespace):
    from repro.analysis.risk import (
        generate_risk_report,
        render_risk_report,
        risk_report_dict,
    )

    measures = tuple(m for m in args.measure.split(",") if m)
    unknown = set(measures) - {"var", "es"}
    if unknown:
        # Validate before the run so --json runs reject the same bad
        # flags as text runs (JSON always carries both measures).
        raise ValidationError(
            f"unknown measures {sorted(unknown)}; choose from ['es', 'var']"
        )
    render = partial(render_risk_report, measures=measures)
    return generate_risk_report, render, risk_report_dict


def _serving_report(args: argparse.Namespace):
    from repro.analysis.serving import (
        generate_serving_report,
        render_serving_report,
        serving_report_dict,
    )

    return generate_serving_report, render_serving_report, serving_report_dict


def _simulation_report(args: argparse.Namespace):
    from repro.analysis.simulate import (
        generate_simulation_report,
        render_simulation_report,
        simulation_report_dict,
    )

    return generate_simulation_report, render_simulation_report, simulation_report_dict


def _gateway_report(args: argparse.Namespace):
    from repro.analysis.gateway import (
        gateway_report_dict,
        generate_gateway_report,
        render_gateway_report,
    )

    return generate_gateway_report, render_gateway_report, gateway_report_dict


def _chaos_report(args: argparse.Namespace):
    from repro.analysis.chaos import (
        chaos_report_dict,
        generate_chaos_report,
        render_chaos_report,
    )

    return generate_chaos_report, render_chaos_report, chaos_report_dict


def _write_chaos_monitor(args: argparse.Namespace, report, seed: int) -> None:
    """``--monitor-out``: every cell's monitor evaluation as one document."""
    if args.monitor_out is None:
        return
    from repro.monitor import monitor_result_dict
    from repro.monitor.core import MONITOR_SCHEMA_VERSION

    payload = {
        "schema_version": MONITOR_SCHEMA_VERSION,
        "seed": seed,
        "cells": {
            name: monitor_result_dict(result)
            for name, result in report.monitor.items()
        },
    }
    with _writing("--monitor-out"):
        Path(args.monitor_out).write_text(
            json.dumps(payload, indent=2, default=_json_default) + "\n"
        )
    print(f"wrote monitor: {args.monitor_out}", file=sys.stderr)


def _dashboard(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.analysis.serving import generate_serving_report
    from repro.monitor import Monitor, write_dashboard, write_monitor_result

    seed = args.seed if args.seed is not None else 17
    monitor = Monitor()
    generate_serving_report(
        sc, seed=seed, monitor=monitor, **_replay_keywords(args, seed)
    )
    title = args.title
    if title is None:
        title = (
            f"repro-cds serve — {args.requests} req at {args.rate:,.0f}/s, "
            f"{args.cards} card(s), seed {seed}"
            + (f", faults {args.faults}" if args.faults else "")
        )
    with _writing("--out"):
        write_dashboard(args.out, monitor.result, title=title)
    print(f"wrote dashboard: {args.out}", file=sys.stderr)
    if args.monitor_out is not None:
        with _writing("--monitor-out"):
            write_monitor_result(args.monitor_out, monitor.result)
        print(f"wrote monitor: {args.monitor_out}", file=sys.stderr)
    return 0


def _table1(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.analysis.tables import generate_table1, render_table1

    rows = generate_table1(sc)
    if args.json:
        _print_json([asdict(r) for r in rows])
    else:
        print(render_table1(rows))
    return 0


def _table2(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.analysis.tables import generate_table2, render_table2

    rows = generate_table2(sc, tuple(args.engines))
    if args.json:
        _print_json([asdict(r) for r in rows])
    else:
        print(render_table2(rows))
    return 0


def _cluster(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.analysis.cluster import (
        generate_cluster_table,
        render_cluster_table,
    )
    from repro.cluster import CDSCluster
    from repro.workloads.cluster import make_cluster_portfolio

    portfolio = make_cluster_portfolio(args.workload, sc.n_options, seed=args.seed)
    cluster = CDSCluster(
        sc,
        n_cards=args.cards,
        n_engines=args.engines,
        scheduler=args.policy,
    )
    result = cluster.run(portfolio)
    sweep_rows = (
        generate_cluster_table(
            sc,
            tuple(args.sweep),
            policy=args.policy,
            n_engines=args.engines,
            workload=args.workload,
            portfolio=portfolio,
        )
        if args.sweep
        else None
    )
    if args.json:
        payload = {
            "cards": args.cards,
            "engines_per_card": args.engines,
            "workload": args.workload,
            "policy": result.policy,
            "seed": args.seed,
            "n_options": len(portfolio),
            "options_per_second": result.options_per_second,
            "makespan_seconds": result.makespan_seconds,
            "total_watts": result.total_watts,
            "options_per_watt": result.options_per_watt,
            "dispatches": result.dispatches,
            "per_card": [
                {k: v for k, v in asdict(c).items() if k != "result"}
                for c in result.cards
            ],
        }
        if sweep_rows is not None:
            payload["sweep"] = [asdict(r) for r in sweep_rows]
        _print_json(payload)
        return 0
    print(
        f"{args.cards} card(s) x {args.engines} engine(s), "
        f"{args.workload} portfolio of {len(portfolio)}:"
    )
    print(result.render())
    if sweep_rows is not None:
        print()
        print(render_cluster_table(sweep_rows))
    return 0


def _read_fresh(path: str) -> dict:
    """The ``--fresh-from`` snapshots: a JSON object by study name."""
    try:
        with open(path) as fh:
            fresh = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read --fresh-from file: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError subclasses this
        raise ValidationError(f"--fresh-from is not valid JSON: {exc}") from exc
    if not isinstance(fresh, dict):
        raise ValidationError(
            f"--fresh-from must hold a JSON object, got {type(fresh).__name__}"
        )
    return fresh


def _bench_check(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.monitor import bench_check, render_check_results

    fresh = None if args.fresh_from is None else _read_fresh(args.fresh_from)
    code, results, snapshots = bench_check(only=args.only, fresh=fresh)
    if args.json:
        _print_json(
            {
                "ok": code == 0,
                "checks": [r.to_dict() for r in results],
                "fresh": snapshots,
            }
        )
    else:
        print(render_check_results(results))
    return code


def _trace(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.analysis.trace import (
        render_trace_summary,
        summarise_trace,
        trace_summary_dict,
    )

    summary = summarise_trace(args.trace_file, top=args.top)
    if args.json:
        _print_json(trace_summary_dict(summary))
    else:
        print(render_trace_summary(summary))
    return 0


def _backends(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.api import available_backends, create_backend

    rows = [
        {"name": name, **asdict(create_backend(name).capabilities)}
        for name in available_backends()
    ]
    if args.json:
        _print_json(rows)
        return 0
    header = (
        f"{'Backend':<12} {'Tensor':>6} {'Stream':>6} {'Legs':>5} "
        f"{'SimT':>5}  Description"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        tensor, stream, legs, simt = (
            "yes" if r[k] else "no"
            for k in (
                "supports_batch_tensor",
                "supports_streaming",
                "supports_legs",
                "simulated_timing",
            )
        )
        print(
            f"{r['name']:<12} {tensor:>6} {stream:>6} {legs:>5} {simt:>5}  "
            f"{r['description']}"
        )
    print(
        "\nopen a session with repro.api.open_session(backend=..., "
        "options=...)"
    )
    return 0


def _figures(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.analysis.figures import (
        figure1_baseline,
        figure2_dataflow,
        figure3_vectorised,
    )

    for fig in (figure1_baseline(), figure2_dataflow(sc), figure3_vectorised(sc)):
        print(fig.to_dot() if args.dot else fig.to_ascii())
        print()
    return 0


def _price(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.core import CDSOption, price_cds

    option = CDSOption(
        maturity=args.maturity,
        frequency=args.frequency,
        recovery_rate=args.recovery,
    )
    result = price_cds(option, sc.yield_curve(), sc.hazard_curve())
    print(
        f"CDS {args.maturity}y x{args.frequency} R={args.recovery}: "
        f"spread {result.spread_bps:.4f} bps ({result.spread_pct:.4f}%)"
    )
    legs = result.legs
    if legs is not None:
        print(
            f"  premium leg {legs.premium_leg:.6f}  protection leg "
            f"{legs.protection_leg:.6f}  accrual {legs.accrual_leg:.6f}"
        )
    return 0


def _engine_report(args: argparse.Namespace, sc: PaperScenario) -> int:
    from repro.engines.builder import engine_resources
    from repro.hls.report import StageReport, synthesis_report
    from repro.hls.accumulator import AccumulatorModel
    from repro.hls.resources import ResourceUsage

    naive = AccumulatorModel(interleaved=False)
    fixed = AccumulatorModel(interleaved=True)
    stages = [
        StageReport(
            name=f"hazard_acc ({label})",
            ii=model.ii,
            latency=model.cycles(sc.n_rates),
            trip_count=sc.n_rates,
            resources=resources,
            pragmas=tuple(p.render() for p in model.pragmas()),
        )
        for label, model, resources in (
            ("naive", naive, ResourceUsage(dsp=3, lut=700, ff=1100)),
            ("Listing 1", fixed, ResourceUsage(dsp=21, lut=4900, ff=7700)),
        )
    ]
    print(
        synthesis_report(
            "CDS engine accumulator comparison",
            stages,
            sc.device.resources,
            clock_mhz=sc.clock.frequency_hz / 1e6,
        )
    )
    print()
    res = engine_resources(sc, replication=sc.replication_factor)
    print(f"Vectorised engine estimate: {res.describe()}")
    return 0


@dataclass(frozen=True)
class Command:
    """One subcommand: its ``--help`` line, its flags in ``--help``
    order, and ``run(args, scenario)`` returning the exit code."""

    help: str
    flags: tuple[Flag, ...]
    run: Callable[[argparse.Namespace, PaperScenario], int]


#: Every subcommand, declared once, in ``--help`` order.
COMMANDS: dict[str, Command] = {
    "table1": Command("regenerate paper Table I", (JSON,), _table1),
    "table2": Command(
        "regenerate paper Table II",
        (
            JSON,
            _flag(
                "--engines",
                type=int,
                nargs="+",
                default=[1, 2, 5],
                help="engine counts to run (default: 1 2 5)",
            ),
        ),
        _table2,
    ),
    "cluster": Command(
        "simulated multi-card cluster run (Table II extended)",
        (
            SEED, JSON, *_replay(cards=4, engines=5), POLICY, _workload("uniform"),
            _flag(
                "--sweep",
                type=int,
                nargs="+",
                default=None,
                metavar="CARDS",
                help="also print the scaling table over these card counts",
            ),
        ),
        _cluster,
    ),
    "risk": Command(
        "portfolio scenario-risk report (VaR/ES, ladders, cluster roll-up)",
        (
            SEED, JSON, *_replay(cards=4, engines=5), POLICY,
            _workload("heterogeneous"), CHUNK, BACKEND, *TELEMETRY, FAULTS,
            _flag("--scenarios", type=int, default=1000, help="scenarios to draw"),
            _flag(
                "--generator",
                choices=("mc", "mixture", "historical", "parallel"),
                default="mc",
                help="scenario family (default: correlated Monte Carlo)",
            ),
            _flag(
                "--confidence",
                type=float,
                nargs="+",
                default=[0.95, 0.99],
                help="VaR/ES confidence levels",
            ),
            _flag(
                "--measure",
                default="var,es",
                help="comma-separated tail measures to print (var, es)",
            ),
            _flag(
                "--no-batch",
                action="store_true",
                help="revalue scenario by scenario instead of with the batched "
                "tensor kernel (identical numbers, slower)",
            ),
        ),
        Report(_risk_report, seed=7, keywords=lambda args: dict(
            n_scenarios=args.scenarios, generator=args.generator,
            confidences=tuple(args.confidence), batch=not args.no_batch,
        )),
    ),
    "serve": Command(
        "live quote serving: micro-batched request stream on the cluster",
        (
            SEED, JSON, *_replay(**_SERVE_REPLAY), POLICY, _workload("heterogeneous"),
            CHUNK, BACKEND, *TELEMETRY, FAULTS, HEDGE,
        ),
        Report(_serving_report, seed=17),
    ),
    "simulate": Command(
        "mixed workloads on one cluster: bursty quotes + periodic risk refresh",
        (
            SEED, JSON,
            *_replay(**dict(
                _SERVE_REPLAY, requests=8_000, rate=20_000.0, traffic="bursty"
            )),
            POLICY, _workload("heterogeneous"), CHUNK, BACKEND, *TELEMETRY, FAULTS,
            HEDGE,
            _flag(
                "--refresh-period",
                type=float,
                default=2e-3,
                metavar="SECONDS",
                help="risk-refresh heartbeat period",
            ),
            _flag(
                "--refresh-rows",
                type=int,
                default=16,
                help="market states per VaR refresh",
            ),
        ),
        Report(_simulation_report, seed=17, keywords=lambda args: dict(
            refresh_period_s=args.refresh_period, refresh_rows=args.refresh_rows,
        )),
    ),
    "gateway": Command(
        "multi-tenant gateway: hash routing, admission quotas, quote cache",
        (
            SEED, JSON,
            *_replay(
                requests=4_000, rate=200_000.0, traffic="poisson", cards=2, engines=5,
                queue_depth=4096, states=64,
            ),
            CHUNK, BACKEND, *TELEMETRY, FAULTS, HEDGE,
            _flag(
                "--tenants",
                type=int,
                default=3,
                help="tenant tiers admitted (1 = single-tenant passthrough, "
                "which also reproduces the serve workload exactly)",
            ),
            _flag(
                "--servers",
                type=int,
                default=2,
                help="quote-server replicas behind the consistent-hash ring",
            ),
            _flag(
                "--cache",
                choices=("on", "off"),
                default="on",
                help="market-state-keyed quote cache with single-flight dedup",
            ),
            _flag(
                "--ticks",
                type=int,
                default=200,
                help="market ticks invalidating cached rows (0 = no churn)",
            ),
            _flag(
                "--tick-rate",
                type=float,
                default=2_000.0,
                metavar="HZ",
                help="mean market-tick rate",
            ),
        ),
        Report(_gateway_report, seed=17, keywords=lambda args: dict(
            n_servers=args.servers, n_tenants=args.tenants, cache=args.cache == "on",
            n_ticks=args.ticks, tick_rate_hz=args.tick_rate,
        )),
    ),
    "chaos": Command(
        "resilience matrix: the serving workload under a family of fault plans",
        (
            SEED, JSON,
            *_replay(
                requests=2000, rate=4000.0, cards=4, max_batch=64, queue_depth=512,
                states=64,
            ),
            *TELEMETRY,
            _flag(
                "--monitor",
                action="store_true",
                help="evaluate every cell under the SLO engine: burn-rate "
                "alerts plus detection scoring against the injected fault plan",
            ),
            _flag(
                "--monitor-out",
                default=None,
                metavar="FILE",
                help="write the per-cell monitor evaluation as a versioned JSON "
                "document (implies --monitor)",
            ),
            _flag(
                "--gateway",
                action="store_true",
                help="add a monitored gateway-crash-1of4 cell: the same workload "
                "through a two-server gateway with one card crashing, scored "
                "against per-tenant SLOs (implies --monitor)",
            ),
        ),
        Report(_chaos_report, seed=7, keywords=lambda args: dict(
            monitor=args.monitor or args.monitor_out is not None, gateway=args.gateway,
        ), finish=_write_chaos_monitor),
    ),
    "dashboard": Command(
        "monitored serving replay rendered as a self-contained HTML page",
        (
            SEED, *_replay(**_SERVE_REPLAY), POLICY, _workload("heterogeneous"),
            CHUNK, BACKEND, FAULTS, HEDGE,
            _flag(
                "--out",
                default="dashboard.html",
                metavar="FILE",
                help="HTML output path (self-contained; opens from disk)",
            ),
            _flag(
                "--title",
                default=None,
                help="page heading (default: derived from the run configuration)",
            ),
            _flag(
                "--monitor-out",
                default=None,
                metavar="FILE",
                help="also write the monitor evaluation as JSON (budgets, "
                "alerts, detection)",
            ),
        ),
        _dashboard,
    ),
    "bench-check": Command(
        "perf watchdog: fresh study runs vs the committed BENCH_<name>.json",
        (
            JSON,
            _flag(
                "--only",
                choices=("serving", "risk", "gateway"),
                default=None,
                help="check a single study instead of all",
            ),
            _flag(
                "--fresh-from",
                default=None,
                metavar="FILE",
                help="JSON file with pre-measured fresh snapshots "
                '({"serving": {...}, "risk": {...}, "gateway": {...}}); '
                "studies found there are not re-run",
            ),
        ),
        _bench_check,
    ),
    "trace": Command(
        "summarise a Chrome trace JSON written by --trace-out",
        (
            JSON,
            _flag("trace_file", help="path to the trace-event JSON"),
            _flag(
                "--top",
                type=int,
                default=10,
                help="critical-path depth: slowest requests to show",
            ),
        ),
        _trace,
    ),
    "backends": Command(
        "list the registered pricing backends and their capabilities",
        (JSON,),
        _backends,
    ),
    "figures": Command(
        "print paper figures 1-3",
        (_flag("--dot", action="store_true", help="emit Graphviz DOT"),),
        _figures,
    ),
    "price": Command(
        "price one CDS option",
        (
            _flag("--maturity", type=float, default=5.0),
            _flag("--frequency", type=int, default=4),
            _flag("--recovery", type=float, default=0.4),
        ),
        _price,
    ),
    "report": Command("engine synthesis-style resource report", (), _engine_report),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro-cds",
        description=(
            "Reproduction of the CLUSTER 2021 FPGA CDS dataflow paper: "
            "simulated engines, tables, figures."
        ),
    )
    parser.add_argument(
        "--options",
        type=int,
        default=None,
        help="batch size for simulated runs (default: scenario default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        command_parser = sub.add_parser(name, help=command.help)
        for names, kwargs in command.flags:
            if callable(kwargs.get("choices")):  # --backend: ask the registry
                kwargs = dict(kwargs, choices=kwargs["choices"]())
            command_parser.add_argument(*names, **kwargs)
    return parser


def _scenario(args: argparse.Namespace) -> PaperScenario:
    overrides = {}
    if args.options is not None:
        overrides["n_options"] = args.options
    if vars(args).get("seed") is not None:
        overrides["seed"] = args.seed
    return PaperScenario(**overrides)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(args, _scenario(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
