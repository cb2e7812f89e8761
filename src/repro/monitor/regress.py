"""The benchmark studies and the perf watchdog over their committed files.

Each benchmark study is defined once, in :data:`STUDIES`: its
parameters, a run returning the raw results, a snapshot rendering those
results in the committed ``BENCH_<name>.json`` schema, and the
per-metric :class:`Tolerance` checks a fresh snapshot is judged by.
The ``benchmarks/`` suite asserts its floors on the same runs;
:func:`bench_check` re-measures each study and compares the fresh
snapshot against the committed file.

Tolerances carry **directionality**: goodput regressing is a failure,
goodput improving is not (the committed file is a floor, not a pin);
latency works the other way; structural counts are two-sided drift
checks.  Serving and gateway metrics are *simulated* time —
deterministic in the seed — so their tolerances are tight; the risk
speedup is host wall-clock and gets a deliberately generous floor (CI
machines are noisy; the watchdog is after the 2x collapse, not the 5%
wobble).

``repro-cds bench-check`` is the CLI face: exit 0 when every check
passes, 1 on any regression, which is what lets CI gate on it.  Its
``--json`` output carries the fresh snapshots, which is how a BENCH
file is regenerated on purpose; nothing rewrites one implicitly.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ValidationError

__all__ = [
    "Tolerance",
    "CheckResult",
    "Study",
    "STUDIES",
    "risk_grid",
    "compare_snapshots",
    "bench_check",
    "render_check_results",
]

#: Directions a metric can regress in.
DIRECTIONS = ("higher-is-better", "lower-is-better", "two-sided")


@dataclass(frozen=True)
class Tolerance:
    """Per-metric regression policy.

    Attributes
    ----------
    rel / abs:
        Allowed relative and absolute slack; a value is in tolerance
        when it is within ``committed * rel + abs`` of the committed
        value on the *bad* side (both slacks apply together).
    direction:
        ``higher-is-better`` fails only when the fresh value is too far
        *below* committed (goodput, hit rates, speedups);
        ``lower-is-better`` fails only when too far *above* (latency,
        shed rates); ``two-sided`` fails on drift either way
        (structural counts).
    """

    rel: float = 0.0
    abs: float = 0.0
    direction: str = "higher-is-better"

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValidationError(
                f"direction must be one of {DIRECTIONS}, got "
                f"{self.direction!r}"
            )
        if self.rel < 0 or self.abs < 0:
            raise ValidationError(
                f"tolerances must be >= 0, got rel={self.rel} abs={self.abs}"
            )

    def slack(self, committed: float) -> float:
        """Allowed deviation around a committed value."""
        return abs(committed) * self.rel + self.abs

    def ok(self, committed: float, fresh: float) -> bool:
        """Whether ``fresh`` is acceptable against ``committed``."""
        slack = self.slack(committed)
        if self.direction == "higher-is-better":
            return fresh >= committed - slack
        if self.direction == "lower-is-better":
            return fresh <= committed + slack
        return abs(fresh - committed) <= slack


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one metric comparison.

    ``committed``/``fresh`` are ``None`` when the metric was missing
    from the respective snapshot (always a failure — a silently dropped
    metric is itself a regression).
    """

    benchmark: str
    metric: str
    committed: float | None
    fresh: float | None
    ok: bool
    detail: str

    def to_dict(self) -> dict:
        """JSON-friendly dump."""
        return {
            "benchmark": self.benchmark,
            "metric": self.metric,
            "committed": self.committed,
            "fresh": self.fresh,
            "ok": self.ok,
            "detail": self.detail,
        }


def _lookup(snapshot: dict, path: str):
    """Dotted-path lookup (``coalesced.goodput_rps``); None if missing."""
    node = snapshot
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare_snapshots(
    benchmark: str,
    committed: dict,
    fresh: dict,
    checks: dict[str, Tolerance],
) -> list[CheckResult]:
    """Judge a fresh snapshot against a committed one, check by check."""
    results: list[CheckResult] = []
    for metric, tol in checks.items():
        committed_v = _lookup(committed, metric)
        fresh_v = _lookup(fresh, metric)
        if committed_v is None or fresh_v is None:
            side = "committed" if committed_v is None else "fresh"
            results.append(
                CheckResult(
                    benchmark=benchmark,
                    metric=metric,
                    committed=committed_v,
                    fresh=fresh_v,
                    ok=False,
                    detail=f"metric missing from the {side} snapshot",
                )
            )
            continue
        committed_v = float(committed_v)
        fresh_v = float(fresh_v)
        ok = tol.ok(committed_v, fresh_v)
        slack = tol.slack(committed_v)
        detail = (
            f"{tol.direction}, slack {slack:g}: fresh {fresh_v:g} vs "
            f"committed {committed_v:g}"
        )
        results.append(
            CheckResult(
                benchmark=benchmark,
                metric=metric,
                committed=committed_v,
                fresh=fresh_v,
                ok=ok,
                detail=detail,
            )
        )
    return results


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Study:
    """One benchmark study: config -> run -> result -> committed snapshot.

    ``params`` is the block the committed file records (``offered`` or
    ``grid``); ``run(params)`` returns the raw results the benchmark
    asserts on; ``snapshot(params, results)`` renders them in the
    committed ``BENCH_<name>.json`` schema (bump its ``schema_version``
    when the payload shape changes); ``checks`` are the per-metric
    tolerances a fresh snapshot is judged by.
    """

    params: dict
    run: Callable[[dict], tuple]
    snapshot: Callable[[dict, tuple], dict]
    checks: dict[str, Tolerance]

    def measure(self) -> dict:
        """Run the study and render a fresh snapshot."""
        return self.snapshot(self.params, self.run(self.params))


def _row(result) -> dict:
    """Goodput, shed and latency of one serving or gateway result."""
    return {
        "goodput_rps": round(result.goodput_rps, 1),
        "throughput_rps": round(result.throughput_rps, 1),
        "shed_rate": round(result.shed_rate, 4),
        "deadline_hit_rate": round(result.deadline_hit_rate, 4),
        "p50_ms": round(result.latency.p50_s * 1e3, 3),
        "p95_ms": round(result.latency.p95_s * 1e3, 3),
        "p99_ms": round(result.latency.p99_s * 1e3, 3),
    }


def _serving_run(p: dict) -> tuple:
    """One request trace replayed coalesced and batch-1."""
    from repro.cluster.batching import BatchQueue
    from repro.risk.engine import make_book
    from repro.serving import QuoteServer, make_market_tape, make_request_stream
    from repro.workloads.scenarios import PaperScenario

    sc = PaperScenario(n_rates=256, n_options=p["n_positions"])
    book = make_book("heterogeneous", p["n_positions"], seed=7)
    tape = make_market_tape(sc.yield_curve(), sc.hazard_curve(), p["n_states"], seed=7)
    requests = make_request_stream(
        p["n_requests"], rate_hz=p["rate_hz"], n_states=p["n_states"],
        n_positions=p["n_positions"], seed=7,
    )

    def serve(queue: BatchQueue):
        return QuoteServer(
            book, tape, scenario=sc, n_cards=p["n_cards"], n_engines=5,
            queue=queue, queue_depth=2048,
        ).serve(requests)

    return (
        serve(BatchQueue(max_batch=256, linger_s=5e-4)),
        serve(BatchQueue(max_batch=1, linger_s=0.0)),
    )


def _serving_snapshot(p: dict, results: tuple) -> dict:
    coalesced, batch1 = results

    def row(r) -> dict:
        return {
            **_row(r),
            "n_dispatches": r.n_dispatches,
            "mean_batch_requests": round(r.mean_batch_requests, 2),
        }

    return {
        "schema_version": 1,
        "benchmark": "serving_coalescing",
        "offered": dict(p),
        "coalesced": row(coalesced),
        "batch1": row(batch1),
        "goodput_ratio": round(
            coalesced.goodput_rps / max(batch1.goodput_rps, 1e-9), 2
        ),
    }


def _gateway_run(p: dict) -> tuple:
    """One multi-tenant trace through the gateway, cache on and off."""
    from repro.analysis.gateway import generate_gateway_report
    from repro.workloads.scenarios import PaperScenario

    sc = PaperScenario(n_rates=256, n_options=p["n_positions"])
    shape = {k: v for k, v in p.items() if k != "n_positions"}
    return tuple(
        generate_gateway_report(sc, cache=cache, seed=7, **shape).result
        for cache in (True, False)
    )


def _gateway_snapshot(p: dict, results: tuple) -> dict:
    on, off = results

    def row(r) -> dict:
        return {**_row(r), "n_completed": r.n_completed, "n_shed": r.n_shed}

    return {
        "schema_version": 1,
        "benchmark": "gateway_cache",
        "offered": dict(p),
        "cached": {
            **row(on),
            "cache_hit_rate": round(on.cache_hit_rate, 4),
            "cache_dedup_rate": round(on.cache_dedup_rate, 4),
            "n_cache_invalidations": on.n_cache_invalidations,
        },
        "uncached": row(off),
        "goodput_ratio": round(on.goodput_rps / max(off.goodput_rps, 1e-9), 2),
        "tenants": [
            {
                "tenant": t.tenant,
                "tier": t.tier,
                "goodput_rps": round(t.goodput_rps, 1),
                "n_completed": t.n_completed,
                "n_shed": t.n_shed,
                "cache_hits": t.n_cache_hits,
            }
            for t in on.tenants
        ],
    }


def risk_grid(n_scenarios: int, n_positions: int) -> tuple:
    """The risk study's one-card engine and its Monte Carlo shocks."""
    from repro.risk import ScenarioRiskEngine, make_book, monte_carlo
    from repro.workloads.scenarios import PaperScenario

    sc = PaperScenario(n_options=n_positions)
    book = make_book("heterogeneous", n_positions, seed=7)
    engine = ScenarioRiskEngine(book, scenario=sc, n_cards=1)
    shocks = monte_carlo(
        engine.yield_curve, engine.hazard_curve, n_scenarios, seed=7, recovery_vol=0.05
    )
    return engine, shocks


def _risk_run(p: dict) -> tuple:
    """Best-of wall-clock of the looped and the batched revalue."""
    engine, shocks = risk_grid(**p)

    def best_of(batch: bool, rounds: int) -> float:
        best = math.inf
        for _ in range(rounds):
            t0 = time.perf_counter()
            engine.revalue(shocks, with_timing=False, batch=batch)
            best = min(best, time.perf_counter() - t0)
        return best

    return best_of(False, 3), best_of(True, 5)


def _risk_snapshot(p: dict, results: tuple) -> dict:
    looped_s, batched_s = results
    n = p["n_scenarios"]
    return {
        "schema_version": 1,
        "benchmark": "scenario_batching",
        "grid": dict(p),
        "looped_seconds": round(looped_s, 6),
        "batched_seconds": round(batched_s, 6),
        "speedup": round(looped_s / batched_s, 2),
        "scenarios_per_sec_looped": round(n / looped_s, 1),
        "scenarios_per_sec_batched": round(n / batched_s, 1),
        "repricings_per_sec_batched": round(n * p["n_positions"] / batched_s, 1),
        "chunk_size": "auto",
    }


_LATENCY = Tolerance(rel=0.02, abs=1e-3, direction="lower-is-better")
_SHED = Tolerance(abs=5e-3, direction="lower-is-better")

#: Every benchmark study, by the name of its committed file.
STUDIES: dict[str, Study] = {
    # 12k requests at 60k req/s offered on 4 cards.  Simulated time,
    # deterministic in the seed: the slack only absorbs the committed
    # file's rounding.
    "serving": Study(
        params=dict(
            n_requests=12_000, rate_hz=60_000.0, n_cards=4, n_positions=32, n_states=256
        ),
        run=_serving_run,
        snapshot=_serving_snapshot,
        checks={
            "coalesced.goodput_rps": Tolerance(rel=0.02),
            "coalesced.p99_ms": _LATENCY,
            "coalesced.shed_rate": _SHED,
            "coalesced.deadline_hit_rate": Tolerance(abs=5e-3),
            "batch1.goodput_rps": Tolerance(rel=0.02),
            "goodput_ratio": Tolerance(rel=0.05),
            "coalesced.n_dispatches": Tolerance(rel=0.05, direction="two-sided"),
            "coalesced.mean_batch_requests": Tolerance(rel=0.05, direction="two-sided"),
        },
    ),
    # The 1000 x 100 Monte Carlo grid, looped versus batched.  Host
    # wall-clock, noisy across machines: the floor is deliberately loose
    # (a halved speedup fails, a slow CI runner does not).
    "risk": Study(
        params=dict(n_scenarios=1000, n_positions=100),
        run=_risk_run,
        snapshot=_risk_snapshot,
        checks={"speedup": Tolerance(rel=0.5)},
    ),
    # 16k multi-tenant requests at 600k req/s offered through two
    # one-card servers.  Like serving, simulated and deterministic; the
    # cache economics (hit rate and on/off goodput ratio) are the point
    # of the subsystem — both are floors, not pins.
    "gateway": Study(
        params=dict(
            n_requests=16_000, rate_hz=600_000.0, n_servers=2, n_cards=1,
            n_positions=32, n_states=64, n_ticks=50, tick_rate_hz=2_000.0,
            queue_depth=8192,
        ),
        run=_gateway_run,
        snapshot=_gateway_snapshot,
        checks={
            "cached.goodput_rps": Tolerance(rel=0.02),
            "cached.cache_hit_rate": Tolerance(abs=5e-3),
            "cached.p99_ms": _LATENCY,
            "cached.shed_rate": _SHED,
            "uncached.goodput_rps": Tolerance(rel=0.02),
            "goodput_ratio": Tolerance(rel=0.05),
        },
    ),
}


# ----------------------------------------------------------------------
def bench_check(
    *, only: str | None = None, fresh: dict | None = None
) -> tuple[int, list[CheckResult], dict]:
    """Run the watchdog: fresh snapshots versus the committed files.

    Each study's committed snapshot is ``BENCH_<name>.json`` in the
    current directory.

    Parameters
    ----------
    only:
        Restrict to one study (a :data:`STUDIES` name).
    fresh:
        Pre-measured snapshots by study name; studies present here are
        not re-run (tests and scripted pipelines use this to decouple
        judgment from measurement).

    Returns
    -------
    (exit_code, results, snapshots)
        ``exit_code`` is 0 iff every check passed; ``snapshots`` maps
        each judged study to the fresh snapshot it was judged on.
    """
    if only is not None and only not in STUDIES:
        raise ValidationError(
            f"only must be one of {tuple(STUDIES)}, got {only!r}"
        )
    fresh = fresh or {}
    results: list[CheckResult] = []
    snapshots: dict[str, dict] = {}
    for name, study in STUDIES.items():
        if only not in (None, name):
            continue
        path = Path(f"BENCH_{name}.json")
        if not path.exists():
            raise ValidationError(f"committed BENCH file not found: {path}")
        committed = json.loads(path.read_text())
        snapshots[name] = fresh.get(name) or study.measure()
        results.extend(
            compare_snapshots(name, committed, snapshots[name], study.checks)
        )
    exit_code = 0 if all(r.ok for r in results) else 1
    return exit_code, results, snapshots


def render_check_results(results: list[CheckResult]) -> str:
    """Text table of the watchdog's verdicts."""
    lines = [
        f"Benchmark watchdog — {len(results)} check(s), "
        f"{sum(1 for r in results if not r.ok)} failing"
    ]
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        committed = "missing" if r.committed is None else f"{r.committed:g}"
        measured = "missing" if r.fresh is None else f"{r.fresh:g}"
        lines.append(
            f"  [{mark}] {r.benchmark}:{r.metric:<28} "
            f"committed {committed:>12}  fresh {measured:>12}"
        )
    return "\n".join(lines)
