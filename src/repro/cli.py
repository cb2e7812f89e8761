"""Command-line interface: ``python -m repro`` or the ``repro-cds`` script.

Subcommands
-----------
``table1``
    Regenerate paper Table I (engine-version throughput).
``table2``
    Regenerate paper Table II (scaling and power).
``cluster``
    Shard a portfolio across N simulated U280 cards and report aggregate
    throughput, per-card utilisation and total power ("Table II
    extended").
``risk``
    The overnight batch: revalue a signed CDS book under a scenario set
    sharded across cluster cards and print the risk report (VaR/ES,
    CS01/IR01 ladders, JTD concentration, simulated cluster throughput).
``serve``
    The live counterpart: replay a request stream (quotes, revals, VaR
    refreshes) through the micro-batching quote server and print tail
    latency, goodput and shed rates.
``simulate``
    Both desks on one cluster: bursty live quotes plus a periodic
    risk-refresh heartbeat replayed on one unified simulation clock,
    with a per-workload latency/goodput breakdown.
``chaos``
    Resilience matrix: replay the serving workload under a family of
    fault plans (card crash, straggler, correlated loss, link brownout)
    and report goodput, retries, breaker trips and recovery time per
    scenario.  With ``--monitor`` every cell also runs under the SLO
    engine (burn-rate alerts, detection scoring vs the injected plan).
``dashboard``
    Run one monitored serving replay and write a self-contained HTML
    dashboard: SLO budget bars, alert/fault timelines, and sparklines
    over the sampled series (no external assets).
``bench-check``
    Perf watchdog: re-measure the serving, risk and gateway benchmark
    studies and compare against the committed ``BENCH_<name>.json``
    files under per-metric tolerances; nonzero exit on regression (the
    CI gate).  ``--json`` also carries the fresh snapshots.
``trace``
    Summarise a Chrome trace JSON written by ``--trace-out``: critical
    path, busiest resources, per-workload queue wait.
``backends``
    List the pricing backends registered with :mod:`repro.api` and
    their capability flags (``risk`` and ``serve`` accept any of them
    via ``--backend``).
``figures``
    Print the three paper figures as ASCII (or DOT with ``--dot``).
``price``
    Price a single CDS from the command line.
``report``
    Synthesis-style resource report for an engine configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

from repro.errors import ReproError
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

    ``cluster`` is excluded: the risk and serving engines already wrap
    the chosen base in the cluster backend, and cluster backends do not
    nest.
    """
    from repro.api import available_backends

    return tuple(n for n in available_backends() if n != "cluster")


#: Flags several subcommands share, declared once: argparse keywords by
#: destination (the flag is ``--`` plus the dashed destination).
_SHARED_FLAGS = {
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

_SERVE_DEFAULTS = dict(
    requests=10_000, rate=5000.0, traffic="poisson", max_batch=128,
    max_delay=1e-3, queue_depth=4096, states=256,
)

#: Each replaying subcommand's defaults for the shared flags it takes.
_SHARED_DEFAULTS = {
    "serve": _SERVE_DEFAULTS,
    "dashboard": _SERVE_DEFAULTS,
    "simulate": dict(
        _SERVE_DEFAULTS, requests=8_000, rate=20_000.0, traffic="bursty"
    ),
    "gateway": dict(
        requests=4_000, rate=200_000.0, traffic="poisson", cards=2, engines=5,
        queue_depth=4096, states=64,
    ),
    "chaos": dict(
        requests=2000, rate=4000.0, cards=4, max_batch=64, queue_depth=512,
        states=64,
    ),
}


def _add_subcommand(
    sub,
    name: str,
    help_text: str,
    *,
    seed: bool = False,
    json_flag: bool = False,
    cluster_shape: bool = False,
    workload: str | None = None,
    chunk: bool = False,
    backend: bool = False,
    telemetry: bool = False,
    faults: bool = False,
) -> argparse.ArgumentParser:
    """Register one subcommand with the shared flag wiring.

    Every data-producing subcommand used to re-declare its own copies of
    the common flags; registering them here means a new subcommand opts
    in with keywords instead of re-declaring the arguments:

    ``seed`` / ``json_flag``
        The ``--seed`` / ``--json`` pair every reproducible command has.
    ``cluster_shape``
        The cluster trio: ``--cards``, ``--engines``, ``--policy``.
    ``workload``
        ``--workload`` with the given default contract mix.
    ``chunk``
        ``--chunk-size`` for the batched host kernels.
    ``backend``
        ``--backend`` choosing the base pricing backend from the
        :mod:`repro.api` registry.
    ``telemetry``
        The ``--trace-out`` / ``--metrics-out`` pair: record spans and
        metrics during the run and write a Chrome trace JSON
        (Perfetto-loadable) and/or a metrics snapshot.  Recording never
        changes the report itself.
    ``faults``
        ``--faults <spec>`` injecting a deterministic fault plan into
        the timing replay (see :mod:`repro.faults`); for serving
        commands also ``--hedge`` enabling straggler hedging.

    The replaying commands in :data:`_SHARED_DEFAULTS` also get their
    replay flags (``--requests``, ``--rate``, ``--traffic``,
    ``--max-batch``, ``--max-delay``, ``--queue-depth``, ``--states``,
    ``--cards``, ``--engines``), each with that command's default.
    """
    parser = sub.add_parser(name, help=help_text)
    if seed:
        parser.add_argument(
            "--seed",
            type=int,
            default=None,
            help="override the scenario/workload seed for a reproducible run",
        )
    if json_flag:
        parser.add_argument(
            "--json",
            action="store_true",
            help="emit machine-readable JSON rows instead of the text table",
        )
    shared = _SHARED_DEFAULTS.get(name, {})
    if cluster_shape:
        shared = {"cards": 4, "engines": 5, **shared}
    for dest, default in shared.items():
        parser.add_argument(
            "--" + dest.replace("_", "-"), default=default, **_SHARED_FLAGS[dest]
        )
    if cluster_shape:
        parser.add_argument(
            "--policy",
            choices=("round-robin", "least-loaded", "work-stealing"),
            default="least-loaded",
            help="cluster sharding policy",
        )
    if workload is not None:
        parser.add_argument(
            "--workload",
            choices=("uniform", "skewed", "heterogeneous"),
            default=workload,
            help="contract mix of the portfolio",
        )
    if chunk:
        parser.add_argument(
            "--chunk-size",
            type=int,
            default=None,
            metavar="N",
            help="market states per batched-kernel chunk (bounds peak "
            "memory; default: automatic sizing)",
        )
    if backend:
        parser.add_argument(
            "--backend",
            choices=_backend_choices(),
            default="vectorized",
            help="base pricing backend from the repro.api registry",
        )
    if telemetry:
        parser.add_argument(
            "--trace-out",
            default=None,
            metavar="FILE",
            help="record simulated-time spans and write a Chrome "
            "trace-event JSON (open with Perfetto or repro-cds trace)",
        )
        parser.add_argument(
            "--metrics-out",
            default=None,
            metavar="FILE",
            help="record run metrics and write a versioned JSON snapshot",
        )
    if faults:
        parser.add_argument(
            "--faults",
            default=None,
            metavar="SPEC",
            help="inject a deterministic fault plan, e.g. "
            "'crash:card=1,at=0.1,repair=0.1;slow:card=2,at=0.2,for=0.1,"
            "factor=4' (see docs/robustness.md for the grammar)",
        )
        if name != "risk":
            parser.add_argument(
                "--hedge",
                action="store_true",
                help="hedge the slowest straggler chunk onto a second card "
                "(fault-injection runs only)",
            )
    return parser


def _fault_plan(args: argparse.Namespace, seed: int):
    """The parsed ``--faults`` plan (None when the flag is absent)."""
    spec = getattr(args, "faults", None)
    if not spec:
        return None, None
    from repro.faults import FaultPlan, HedgePolicy

    plan = FaultPlan.from_spec(spec, seed=seed)
    hedge = HedgePolicy(enabled=True) if getattr(args, "hedge", False) else None
    return plan, hedge


def _make_telemetry(args: argparse.Namespace):
    """A recording telemetry handle when either output flag asks for one."""
    if getattr(args, "trace_out", None) is None and (
        getattr(args, "metrics_out", None) is None
    ):
        return None
    from repro.telemetry import Telemetry

    return Telemetry.recording()


def _write_telemetry(args: argparse.Namespace, telemetry) -> None:
    """Write the trace/metrics files the flags requested."""
    if telemetry is None:
        return
    from repro.telemetry import write_chrome_trace, write_metrics_snapshot

    if args.trace_out is not None:
        write_chrome_trace(args.trace_out, telemetry.recorder)
        print(f"wrote trace: {args.trace_out}", file=sys.stderr)
    if args.metrics_out is not None:
        write_metrics_snapshot(args.metrics_out, telemetry.metrics)
        print(f"wrote metrics: {args.metrics_out}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
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

    _add_subcommand(sub, "table1", "regenerate paper Table I", json_flag=True)

    t2 = _add_subcommand(
        sub, "table2", "regenerate paper Table II", json_flag=True
    )
    t2.add_argument(
        "--engines",
        type=int,
        nargs="+",
        default=[1, 2, 5],
        help="engine counts to run (default: 1 2 5)",
    )

    cl = _add_subcommand(
        sub,
        "cluster",
        "simulated multi-card cluster run (Table II extended)",
        seed=True,
        json_flag=True,
        cluster_shape=True,
        workload="uniform",
    )
    cl.add_argument(
        "--sweep",
        type=int,
        nargs="+",
        default=None,
        metavar="CARDS",
        help="also print the scaling table over these card counts",
    )

    rk = _add_subcommand(
        sub,
        "risk",
        "portfolio scenario-risk report (VaR/ES, ladders, cluster roll-up)",
        seed=True,
        json_flag=True,
        cluster_shape=True,
        workload="heterogeneous",
        chunk=True,
        backend=True,
        telemetry=True,
        faults=True,
    )
    rk.add_argument(
        "--scenarios", type=int, default=1000, help="scenarios to draw"
    )
    rk.add_argument(
        "--generator",
        choices=("mc", "mixture", "historical", "parallel"),
        default="mc",
        help="scenario family (default: correlated Monte Carlo)",
    )
    rk.add_argument(
        "--confidence",
        type=float,
        nargs="+",
        default=[0.95, 0.99],
        help="VaR/ES confidence levels",
    )
    rk.add_argument(
        "--measure",
        default="var,es",
        help="comma-separated tail measures to print (var, es)",
    )
    rk.add_argument(
        "--no-batch",
        action="store_true",
        help="revalue scenario by scenario instead of with the batched "
        "tensor kernel (identical numbers, slower)",
    )

    _add_subcommand(
        sub,
        "serve",
        "live quote serving: micro-batched request stream on the cluster",
        seed=True,
        json_flag=True,
        cluster_shape=True,
        workload="heterogeneous",
        chunk=True,
        backend=True,
        telemetry=True,
        faults=True,
    )

    sm = _add_subcommand(
        sub,
        "simulate",
        "mixed workloads on one cluster: bursty quotes + periodic risk refresh",
        seed=True,
        json_flag=True,
        cluster_shape=True,
        workload="heterogeneous",
        chunk=True,
        backend=True,
        telemetry=True,
        faults=True,
    )
    sm.add_argument(
        "--refresh-period",
        type=float,
        default=2e-3,
        metavar="SECONDS",
        help="risk-refresh heartbeat period",
    )
    sm.add_argument(
        "--refresh-rows",
        type=int,
        default=16,
        help="market states per VaR refresh",
    )

    gw = _add_subcommand(
        sub,
        "gateway",
        "multi-tenant gateway: hash routing, admission quotas, quote cache",
        seed=True,
        json_flag=True,
        chunk=True,
        backend=True,
        telemetry=True,
        faults=True,
    )
    gw.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="tenant tiers admitted (1 = single-tenant passthrough, "
        "which also reproduces the serve workload exactly)",
    )
    gw.add_argument(
        "--servers",
        type=int,
        default=2,
        help="quote-server replicas behind the consistent-hash ring",
    )
    gw.add_argument(
        "--cache",
        choices=("on", "off"),
        default="on",
        help="market-state-keyed quote cache with single-flight dedup",
    )
    gw.add_argument(
        "--ticks",
        type=int,
        default=200,
        help="market ticks invalidating cached rows (0 = no churn)",
    )
    gw.add_argument(
        "--tick-rate",
        type=float,
        default=2_000.0,
        metavar="HZ",
        help="mean market-tick rate",
    )

    ch = _add_subcommand(
        sub,
        "chaos",
        "resilience matrix: the serving workload under a family of fault plans",
        seed=True,
        json_flag=True,
        telemetry=True,
    )
    ch.add_argument(
        "--monitor",
        action="store_true",
        help="evaluate every cell under the SLO engine: burn-rate "
        "alerts plus detection scoring against the injected fault plan",
    )
    ch.add_argument(
        "--monitor-out",
        default=None,
        metavar="FILE",
        help="write the per-cell monitor evaluation as a versioned JSON "
        "document (implies --monitor)",
    )
    ch.add_argument(
        "--gateway",
        action="store_true",
        help="add a monitored gateway-crash-1of4 cell: the same workload "
        "through a two-server gateway with one card crashing, scored "
        "against per-tenant SLOs (implies --monitor)",
    )

    db = _add_subcommand(
        sub,
        "dashboard",
        "monitored serving replay rendered as a self-contained HTML page",
        seed=True,
        cluster_shape=True,
        workload="heterogeneous",
        chunk=True,
        backend=True,
        faults=True,
    )
    db.add_argument(
        "--out",
        default="dashboard.html",
        metavar="FILE",
        help="HTML output path (self-contained; opens from disk)",
    )
    db.add_argument(
        "--title",
        default=None,
        help="page heading (default: derived from the run configuration)",
    )
    db.add_argument(
        "--monitor-out",
        default=None,
        metavar="FILE",
        help="also write the monitor evaluation as JSON (budgets, "
        "alerts, detection)",
    )

    bc = _add_subcommand(
        sub,
        "bench-check",
        "perf watchdog: fresh study runs vs the committed BENCH_<name>.json",
        json_flag=True,
    )
    bc.add_argument(
        "--only",
        choices=("serving", "risk", "gateway"),
        default=None,
        help="check a single study instead of all",
    )
    bc.add_argument(
        "--fresh-from",
        default=None,
        metavar="FILE",
        help="JSON file with pre-measured fresh snapshots "
        '({"serving": {...}, "risk": {...}, "gateway": {...}}); '
        "studies found there are not re-run",
    )

    tr = _add_subcommand(
        sub,
        "trace",
        "summarise a Chrome trace JSON written by --trace-out",
        json_flag=True,
    )
    tr.add_argument("trace_file", help="path to the trace-event JSON")
    tr.add_argument(
        "--top",
        type=int,
        default=10,
        help="critical-path depth: slowest requests to show",
    )

    _add_subcommand(
        sub,
        "backends",
        "list the registered pricing backends and their capabilities",
        json_flag=True,
    )

    figs = _add_subcommand(sub, "figures", "print paper figures 1-3")
    figs.add_argument("--dot", action="store_true", help="emit Graphviz DOT")

    price = _add_subcommand(sub, "price", "price one CDS option")
    price.add_argument("--maturity", type=float, default=5.0)
    price.add_argument("--frequency", type=int, default=4)
    price.add_argument("--recovery", type=float, default=0.4)

    _add_subcommand(sub, "report", "engine synthesis-style resource report")
    return parser


def _scenario(args: argparse.Namespace) -> PaperScenario:
    overrides = {}
    if args.options is not None:
        overrides["n_options"] = args.options
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    return PaperScenario(**overrides)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    sc = _scenario(args)

    if args.command == "table1":
        from repro.analysis.tables import generate_table1, render_table1

        rows = generate_table1(sc)
        if args.json:
            _print_json([asdict(r) for r in rows])
        else:
            print(render_table1(rows))
        return 0

    if args.command == "table2":
        from repro.analysis.tables import generate_table2, render_table2

        rows = generate_table2(sc, tuple(args.engines))
        if args.json:
            _print_json([asdict(r) for r in rows])
        else:
            print(render_table2(rows))
        return 0

    if args.command == "cluster":
        from repro.analysis.cluster import (
            generate_cluster_table,
            render_cluster_table,
        )
        from repro.cluster import CDSCluster
        from repro.workloads.cluster import make_cluster_portfolio

        portfolio = make_cluster_portfolio(
            args.workload, sc.n_options, seed=args.seed
        )
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

    if args.command == "risk":
        from repro.analysis.risk import (
            generate_risk_report,
            render_risk_report,
            risk_report_dict,
        )

        from repro.errors import ValidationError

        measures = tuple(m for m in args.measure.split(",") if m)
        unknown = set(measures) - {"var", "es"}
        if unknown:
            # Validate here too so --json runs reject the same bad flags
            # as text runs (JSON always carries both measures).
            raise ValidationError(
                f"unknown measures {sorted(unknown)}; choose from ['es', 'var']"
            )
        seed = args.seed if args.seed is not None else 7
        telemetry = _make_telemetry(args)
        plan, _ = _fault_plan(args, seed)
        report = generate_risk_report(
            sc,
            n_scenarios=args.scenarios,
            n_cards=args.cards,
            n_engines=args.engines,
            policy=args.policy,
            workload=args.workload,
            generator=args.generator,
            seed=seed,
            confidences=tuple(args.confidence),
            batch=not args.no_batch,
            chunk_size=args.chunk_size,
            backend=args.backend,
            telemetry=telemetry,
            faults=plan,
        )
        if args.json:
            _print_json(risk_report_dict(report))
        else:
            print(render_risk_report(report, measures=measures))
        _write_telemetry(args, telemetry)
        return 0

    if args.command == "serve":
        from repro.analysis.serving import (
            generate_serving_report,
            render_serving_report,
            serving_report_dict,
        )

        seed = args.seed if args.seed is not None else 17
        telemetry = _make_telemetry(args)
        plan, hedge = _fault_plan(args, seed)
        report = generate_serving_report(
            sc,
            n_requests=args.requests,
            rate_hz=args.rate,
            n_cards=args.cards,
            n_engines=args.engines,
            policy=args.policy,
            workload=args.workload,
            traffic=args.traffic,
            max_batch=args.max_batch,
            max_delay_s=args.max_delay,
            queue_depth=args.queue_depth,
            n_states=args.states,
            seed=seed,
            chunk_size=args.chunk_size,
            backend=args.backend,
            telemetry=telemetry,
            faults=plan,
            hedge=hedge,
        )
        if args.json:
            _print_json(serving_report_dict(report))
        else:
            print(render_serving_report(report))
        _write_telemetry(args, telemetry)
        return 0

    if args.command == "simulate":
        from repro.analysis.simulate import (
            generate_simulation_report,
            render_simulation_report,
            simulation_report_dict,
        )

        seed = args.seed if args.seed is not None else 17
        telemetry = _make_telemetry(args)
        plan, hedge = _fault_plan(args, seed)
        report = generate_simulation_report(
            sc,
            n_requests=args.requests,
            rate_hz=args.rate,
            traffic=args.traffic,
            refresh_period_s=args.refresh_period,
            refresh_rows=args.refresh_rows,
            n_cards=args.cards,
            n_engines=args.engines,
            policy=args.policy,
            workload=args.workload,
            max_batch=args.max_batch,
            max_delay_s=args.max_delay,
            queue_depth=args.queue_depth,
            n_states=args.states,
            seed=seed,
            chunk_size=args.chunk_size,
            backend=args.backend,
            telemetry=telemetry,
            faults=plan,
            hedge=hedge,
        )
        if args.json:
            _print_json(simulation_report_dict(report))
        else:
            print(render_simulation_report(report))
        _write_telemetry(args, telemetry)
        return 0

    if args.command == "gateway":
        from repro.analysis.gateway import (
            gateway_report_dict,
            generate_gateway_report,
            render_gateway_report,
        )

        seed = args.seed if args.seed is not None else 17
        telemetry = _make_telemetry(args)
        plan, hedge = _fault_plan(args, seed)
        report = generate_gateway_report(
            sc,
            n_requests=args.requests,
            rate_hz=args.rate,
            n_servers=args.servers,
            n_cards=args.cards,
            n_engines=args.engines,
            traffic=args.traffic,
            n_tenants=args.tenants,
            cache=args.cache == "on",
            n_ticks=args.ticks,
            tick_rate_hz=args.tick_rate,
            queue_depth=args.queue_depth,
            n_states=args.states,
            seed=seed,
            chunk_size=args.chunk_size,
            backend=args.backend,
            telemetry=telemetry,
            faults=plan,
            hedge=hedge,
        )
        if args.json:
            _print_json(gateway_report_dict(report))
        else:
            print(render_gateway_report(report))
        _write_telemetry(args, telemetry)
        return 0

    if args.command == "chaos":
        from repro.analysis.chaos import (
            chaos_report_dict,
            generate_chaos_report,
            render_chaos_report,
        )

        seed = args.seed if args.seed is not None else 7
        telemetry = _make_telemetry(args)
        monitor = args.monitor or args.monitor_out is not None
        report = generate_chaos_report(
            sc,
            seed=seed,
            n_requests=args.requests,
            rate_hz=args.rate,
            n_cards=args.cards,
            max_batch=args.max_batch,
            queue_depth=args.queue_depth,
            n_states=args.states,
            telemetry=telemetry,
            monitor=monitor,
            gateway=args.gateway,
        )
        if args.json:
            _print_json(chaos_report_dict(report))
        else:
            print(render_chaos_report(report))
        _write_telemetry(args, telemetry)
        if args.monitor_out is not None:
            from pathlib import Path

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
            Path(args.monitor_out).write_text(
                json.dumps(payload, indent=2, default=_json_default) + "\n"
            )
            print(f"wrote monitor: {args.monitor_out}", file=sys.stderr)
        return 0

    if args.command == "dashboard":
        from repro.analysis.serving import generate_serving_report
        from repro.monitor import Monitor, write_dashboard, write_monitor_result

        seed = args.seed if args.seed is not None else 17
        plan, hedge = _fault_plan(args, seed)
        monitor = Monitor()
        generate_serving_report(
            sc,
            n_requests=args.requests,
            rate_hz=args.rate,
            n_cards=args.cards,
            n_engines=args.engines,
            policy=args.policy,
            workload=args.workload,
            traffic=args.traffic,
            max_batch=args.max_batch,
            max_delay_s=args.max_delay,
            queue_depth=args.queue_depth,
            n_states=args.states,
            seed=seed,
            chunk_size=args.chunk_size,
            backend=args.backend,
            faults=plan,
            hedge=hedge,
            monitor=monitor,
        )
        title = (
            args.title
            if args.title is not None
            else (
                f"repro-cds serve — {args.requests} req at {args.rate:,.0f}/s, "
                f"{args.cards} card(s), seed {seed}"
                + (f", faults {args.faults}" if args.faults else "")
            )
        )
        write_dashboard(args.out, monitor.result, title=title)
        print(f"wrote dashboard: {args.out}", file=sys.stderr)
        if args.monitor_out is not None:
            write_monitor_result(args.monitor_out, monitor.result)
            print(f"wrote monitor: {args.monitor_out}", file=sys.stderr)
        return 0

    if args.command == "bench-check":
        from repro.monitor import bench_check, render_check_results

        fresh = None
        if args.fresh_from is not None:
            with open(args.fresh_from) as fh:
                fresh = json.load(fh)
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

    if args.command == "trace":
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

    if args.command == "backends":
        from repro.api import available_backends, create_backend

        rows = []
        for name in available_backends():
            caps = create_backend(name).capabilities
            rows.append(
                {
                    "name": name,
                    "supports_batch_tensor": caps.supports_batch_tensor,
                    "supports_streaming": caps.supports_streaming,
                    "supports_legs": caps.supports_legs,
                    "simulated_timing": caps.simulated_timing,
                    "description": caps.description,
                }
            )
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
            flags = [
                "yes" if r[k] else "no"
                for k in (
                    "supports_batch_tensor",
                    "supports_streaming",
                    "supports_legs",
                    "simulated_timing",
                )
            ]
            print(
                f"{r['name']:<12} {flags[0]:>6} {flags[1]:>6} "
                f"{flags[2]:>5} {flags[3]:>5}  {r['description']}"
            )
        print(
            "\nopen a session with repro.api.open_session(backend=..., "
            "options=...)"
        )
        return 0

    if args.command == "figures":
        from repro.analysis.figures import (
            figure1_baseline,
            figure2_dataflow,
            figure3_vectorised,
        )

        for fig in (figure1_baseline(), figure2_dataflow(sc), figure3_vectorised(sc)):
            print(fig.to_dot() if args.dot else fig.to_ascii())
            print()
        return 0

    if args.command == "price":
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

    if args.command == "report":
        from repro.engines.builder import engine_resources
        from repro.hls.report import StageReport, synthesis_report
        from repro.hls.accumulator import AccumulatorModel
        from repro.hls.resources import ResourceUsage

        naive = AccumulatorModel(interleaved=False)
        fixed = AccumulatorModel(interleaved=True)
        stages = [
            StageReport(
                name="hazard_acc (naive)",
                ii=naive.ii,
                latency=naive.cycles(sc.n_rates),
                trip_count=sc.n_rates,
                resources=ResourceUsage(dsp=3, lut=700, ff=1100),
                pragmas=tuple(p.render() for p in naive.pragmas()),
            ),
            StageReport(
                name="hazard_acc (Listing 1)",
                ii=fixed.ii,
                latency=fixed.cycles(sc.n_rates),
                trip_count=sc.n_rates,
                resources=ResourceUsage(dsp=21, lut=4900, ff=7700),
                pragmas=tuple(p.render() for p in fixed.pragmas()),
            ),
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

    return 1  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
