"""The perf watchdog: fresh benchmark snapshots versus committed BENCH files.

``BENCH_serving.json`` and ``BENCH_risk.json`` record the repo's
benchmark trajectory; until now nothing *consumed* them — a goodput
regression would sail through CI as long as the floor assertions held.
This module makes the committed files load-bearing: :func:`bench_check`
re-measures each benchmark (:func:`fresh_serving_snapshot` /
:func:`fresh_risk_snapshot`, replicating the exact parameters of the
``benchmarks/`` suite) and compares the fresh numbers against the
committed ones under per-metric :class:`Tolerance` policies.

Tolerances carry **directionality**: goodput regressing is a failure,
goodput improving is not (the committed file is a floor, not a pin);
latency works the other way; structural counts are two-sided drift
checks.  Serving metrics are *simulated* time — deterministic in the
seed — so their tolerances are tight; the risk speedup is host
wall-clock and gets a deliberately generous floor (CI machines are
noisy; the watchdog is after the 2x collapse, not the 5% wobble).

``repro-cds bench-check`` is the CLI face: exit 0 when every check
passes, 1 on any regression, which is what lets CI gate on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ValidationError

__all__ = [
    "Tolerance",
    "CheckResult",
    "SERVING_CHECKS",
    "RISK_CHECKS",
    "GATEWAY_CHECKS",
    "compare_snapshots",
    "fresh_serving_snapshot",
    "fresh_risk_snapshot",
    "fresh_gateway_snapshot",
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


#: Serving checks: simulated-time metrics, deterministic in the seed,
#: so the slack only absorbs float formatting (the BENCH file rounds).
SERVING_CHECKS: dict[str, Tolerance] = {
    "coalesced.goodput_rps": Tolerance(rel=0.02, direction="higher-is-better"),
    "coalesced.p99_ms": Tolerance(rel=0.02, abs=1e-3, direction="lower-is-better"),
    "coalesced.shed_rate": Tolerance(abs=5e-3, direction="lower-is-better"),
    "coalesced.deadline_hit_rate": Tolerance(
        abs=5e-3, direction="higher-is-better"
    ),
    "batch1.goodput_rps": Tolerance(rel=0.02, direction="higher-is-better"),
    "goodput_ratio": Tolerance(rel=0.05, direction="higher-is-better"),
    "coalesced.n_dispatches": Tolerance(rel=0.05, direction="two-sided"),
    "coalesced.mean_batch_requests": Tolerance(
        rel=0.05, direction="two-sided"
    ),
}

#: Risk checks: host wall-clock, noisy across machines — the floor is
#: deliberately loose (a halved speedup fails, a slow CI runner does
#: not).
RISK_CHECKS: dict[str, Tolerance] = {
    "speedup": Tolerance(rel=0.5, direction="higher-is-better"),
}

#: Gateway checks: like serving, simulated time and deterministic in
#: the seed, so the slack only absorbs the BENCH file's rounding.  The
#: cache economics (hit rate and on/off goodput ratio) are the point of
#: the subsystem — both are floors, not pins.
GATEWAY_CHECKS: dict[str, Tolerance] = {
    "cached.goodput_rps": Tolerance(rel=0.02, direction="higher-is-better"),
    "cached.cache_hit_rate": Tolerance(
        abs=5e-3, direction="higher-is-better"
    ),
    "cached.p99_ms": Tolerance(rel=0.02, abs=1e-3, direction="lower-is-better"),
    "cached.shed_rate": Tolerance(abs=5e-3, direction="lower-is-better"),
    "uncached.goodput_rps": Tolerance(rel=0.02, direction="higher-is-better"),
    "goodput_ratio": Tolerance(rel=0.05, direction="higher-is-better"),
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
def fresh_serving_snapshot() -> dict:
    """Re-measure the serving benchmark (same parameters, same rounding).

    Replicates ``benchmarks/test_serving_latency.py`` exactly — the
    12k-request trace at 60k req/s offered, coalesced and batch-1 —
    and returns a dict in the committed ``BENCH_serving.json`` schema.
    Simulated time throughout: deterministic in the seed.
    """
    from repro.cluster.batching import BatchQueue
    from repro.risk.engine import make_book
    from repro.serving import (
        QuoteServer,
        make_market_tape,
        make_request_stream,
    )
    from repro.workloads.scenarios import PaperScenario

    n_requests, rate_hz = 12_000, 60_000.0
    n_positions, n_states, n_cards = 32, 256, 4
    sc = PaperScenario(n_rates=256, n_options=n_positions)
    book = make_book("heterogeneous", n_positions, seed=7)
    tape = make_market_tape(
        sc.yield_curve(), sc.hazard_curve(), n_states, seed=7
    )
    requests = make_request_stream(
        n_requests,
        rate_hz=rate_hz,
        n_states=n_states,
        n_positions=n_positions,
        seed=7,
    )

    def run(queue: BatchQueue):
        server = QuoteServer(
            book,
            tape,
            scenario=sc,
            n_cards=n_cards,
            n_engines=5,
            queue=queue,
            queue_depth=2048,
        )
        return server.serve(requests)

    def row(result) -> dict:
        return {
            "goodput_rps": round(result.goodput_rps, 1),
            "throughput_rps": round(result.throughput_rps, 1),
            "shed_rate": round(result.shed_rate, 4),
            "deadline_hit_rate": round(result.deadline_hit_rate, 4),
            "p50_ms": round(result.latency.p50_s * 1e3, 3),
            "p95_ms": round(result.latency.p95_s * 1e3, 3),
            "p99_ms": round(result.latency.p99_s * 1e3, 3),
            "n_dispatches": result.n_dispatches,
            "mean_batch_requests": round(result.mean_batch_requests, 2),
        }

    coalesced = run(BatchQueue(max_batch=256, linger_s=5e-4))
    batch1 = run(BatchQueue(max_batch=1, linger_s=0.0))
    ratio = coalesced.goodput_rps / max(batch1.goodput_rps, 1e-9)
    return {
        "benchmark": "serving_coalescing",
        "coalesced": row(coalesced),
        "batch1": row(batch1),
        "goodput_ratio": round(ratio, 2),
    }


def fresh_risk_snapshot() -> dict:
    """Re-measure the risk benchmark (looped vs batched wall-clock).

    Replicates ``benchmarks/test_scenario_batching.py``: the 1000 x 100
    grid, best-of-N wall-clock on each path.  Host time — noisy, which
    is why :data:`RISK_CHECKS` is loose.
    """
    import time

    from repro.risk import ScenarioRiskEngine, make_book, monte_carlo
    from repro.workloads.scenarios import PaperScenario

    n_scenarios, n_positions = 1000, 100
    sc = PaperScenario(n_options=n_positions)
    book = make_book("heterogeneous", n_positions, seed=7)
    engine = ScenarioRiskEngine(book, scenario=sc, n_cards=1)
    shocks = monte_carlo(
        engine.yield_curve,
        engine.hazard_curve,
        n_scenarios,
        seed=7,
        recovery_vol=0.05,
    )

    def best_of(fn, rounds: int) -> float:
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    looped_s = best_of(
        lambda: engine.revalue(shocks, with_timing=False, batch=False), 3
    )
    batched_s = best_of(
        lambda: engine.revalue(shocks, with_timing=False, batch=True), 5
    )
    return {
        "benchmark": "scenario_batching",
        "looped_seconds": round(looped_s, 6),
        "batched_seconds": round(batched_s, 6),
        "speedup": round(looped_s / batched_s, 2),
    }


def fresh_gateway_snapshot() -> dict:
    """Re-measure the gateway benchmark (same parameters, same rounding).

    Replicates ``benchmarks/test_gateway_cache.py`` exactly — the
    16k-request multi-tenant trace at 600k req/s offered through the
    two-server gateway, cache on and cache off — and returns a dict in
    the committed ``BENCH_gateway.json`` schema.  Simulated time
    throughout: deterministic in the seed.
    """
    from repro.analysis.gateway import generate_gateway_report
    from repro.workloads.scenarios import PaperScenario

    n_requests, rate_hz = 16_000, 600_000.0
    n_positions, n_states = 32, 64
    sc = PaperScenario(n_rates=256, n_options=n_positions)

    def run(cache: bool):
        return generate_gateway_report(
            sc,
            n_requests=n_requests,
            rate_hz=rate_hz,
            n_servers=2,
            n_cards=1,
            cache=cache,
            n_ticks=50,
            tick_rate_hz=2_000.0,
            queue_depth=8192,
            n_states=n_states,
            seed=7,
        ).result

    def row(result) -> dict:
        return {
            "goodput_rps": round(result.goodput_rps, 1),
            "throughput_rps": round(result.throughput_rps, 1),
            "shed_rate": round(result.shed_rate, 4),
            "deadline_hit_rate": round(result.deadline_hit_rate, 4),
            "p50_ms": round(result.latency.p50_s * 1e3, 3),
            "p95_ms": round(result.latency.p95_s * 1e3, 3),
            "p99_ms": round(result.latency.p99_s * 1e3, 3),
            "n_completed": result.n_completed,
            "n_shed": result.n_shed,
        }

    on = run(cache=True)
    off = run(cache=False)
    ratio = on.goodput_rps / max(off.goodput_rps, 1e-9)
    return {
        "benchmark": "gateway_cache",
        "cached": {
            **row(on),
            "cache_hit_rate": round(on.cache_hit_rate, 4),
            "cache_dedup_rate": round(on.cache_dedup_rate, 4),
            "n_cache_invalidations": on.n_cache_invalidations,
        },
        "uncached": row(off),
        "goodput_ratio": round(ratio, 2),
    }


# ----------------------------------------------------------------------
def bench_check(
    *,
    serving_path=None,
    risk_path=None,
    gateway_path=None,
    only: str | None = None,
    fresh: dict | None = None,
) -> tuple[int, list[CheckResult]]:
    """Run the watchdog: fresh measurements versus the committed files.

    Parameters
    ----------
    serving_path / risk_path / gateway_path:
        Committed BENCH file locations (default: repo-root names in the
        current directory).
    only:
        Restrict to one benchmark (``"serving"``, ``"risk"`` or
        ``"gateway"``).
    fresh:
        Pre-measured snapshots ``{"serving": {...}, "risk": {...},
        "gateway": {...}}``; benchmarks present here are not re-run
        (tests and scripted pipelines use this to decouple judgment
        from measurement).

    Returns
    -------
    (exit_code, results)
        ``exit_code`` is 0 iff every check passed.
    """
    if only not in (None, "serving", "risk", "gateway"):
        raise ValidationError(
            f"only must be 'serving', 'risk' or 'gateway', got {only!r}"
        )
    fresh = fresh or {}
    results: list[CheckResult] = []
    if only in (None, "serving"):
        path = Path(serving_path or "BENCH_serving.json")
        if not path.exists():
            raise ValidationError(f"committed BENCH file not found: {path}")
        committed = json.loads(path.read_text())
        measured = fresh.get("serving") or fresh_serving_snapshot()
        results.extend(
            compare_snapshots("serving", committed, measured, SERVING_CHECKS)
        )
    if only in (None, "risk"):
        path = Path(risk_path or "BENCH_risk.json")
        if not path.exists():
            raise ValidationError(f"committed BENCH file not found: {path}")
        committed = json.loads(path.read_text())
        measured = fresh.get("risk") or fresh_risk_snapshot()
        results.extend(
            compare_snapshots("risk", committed, measured, RISK_CHECKS)
        )
    if only in (None, "gateway"):
        path = Path(gateway_path or "BENCH_gateway.json")
        if not path.exists():
            raise ValidationError(f"committed BENCH file not found: {path}")
        committed = json.loads(path.read_text())
        measured = fresh.get("gateway") or fresh_gateway_snapshot()
        results.extend(
            compare_snapshots("gateway", committed, measured, GATEWAY_CHECKS)
        )
    exit_code = 0 if all(r.ok for r in results) else 1
    return exit_code, results


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
