"""Benchmark: looped versus batched scenario-grid revaluation.

This is the loop-to-array transformation the paper's CPU baseline makes
with OpenMP/``-O3`` inner-loop vectorisation (Section II.B), applied to
the risk subsystem's hottest path: instead of one ``price_packed_book``
call per scenario, the whole ``(scenarios x options x timepoints)``
tensor is priced by a few chunked ``price_packed_many`` kernel
invocations.

The run times both paths on the acceptance grid (1000 Monte Carlo
scenarios x 100 contracts), asserts the batched path is bit-identical,
and persists the numbers to ``BENCH_risk.json`` at the repository root
(uploaded as a CI artifact by the workflow's non-blocking benchmark
job).  The speedup itself is wall-clock and machine-dependent, so this
test records it without gating on it: ``repro-cds bench-check``'s risk
leg and the ``perfbench`` harness's ``risk_mc_grid`` workload gate host
speed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.risk import ScenarioRiskEngine, make_book, monte_carlo
from repro.workloads.scenarios import PaperScenario

N_SCENARIOS = 1000
N_POSITIONS = 100
BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_risk.json"
#: Bump when the BENCH_risk.json payload shape changes.
BENCH_SCHEMA_VERSION = 1


def _best_of(fn, rounds: int) -> float:
    """Best wall-clock of ``rounds`` runs (noise-robust on shared CI)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def grid():
    sc = PaperScenario(n_options=N_POSITIONS)
    book = make_book("heterogeneous", N_POSITIONS, seed=7)
    engine = ScenarioRiskEngine(book, scenario=sc, n_cards=1)
    shocks = monte_carlo(
        engine.yield_curve,
        engine.hazard_curve,
        N_SCENARIOS,
        seed=7,
        recovery_vol=0.05,
    )
    return engine, shocks


@pytest.fixture(scope="module")
def measured(grid):
    engine, shocks = grid
    looped = engine.revalue(shocks, with_timing=False, batch=False)
    batched = engine.revalue(shocks, with_timing=False, batch=True)
    looped_s = _best_of(
        lambda: engine.revalue(shocks, with_timing=False, batch=False), 3
    )
    batched_s = _best_of(
        lambda: engine.revalue(shocks, with_timing=False, batch=True), 5
    )
    return looped, batched, looped_s, batched_s


def test_batched_grid_is_bit_identical(measured):
    looped, batched, _, _ = measured
    np.testing.assert_array_equal(batched.pv, looped.pv)
    np.testing.assert_array_equal(batched.pnl, looped.pnl)


def test_batched_grid_speedup_and_trajectory(measured):
    """The 1000 x 100 grid's speedup, recorded to BENCH_risk.json."""
    _, _, looped_s, batched_s = measured
    speedup = looped_s / batched_s
    payload = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "scenario_batching",
        "grid": {"n_scenarios": N_SCENARIOS, "n_positions": N_POSITIONS},
        "looped_seconds": round(looped_s, 6),
        "batched_seconds": round(batched_s, 6),
        "speedup": round(speedup, 2),
        "scenarios_per_sec_looped": round(N_SCENARIOS / looped_s, 1),
        "scenarios_per_sec_batched": round(N_SCENARIOS / batched_s, 1),
        "repricings_per_sec_batched": round(
            N_SCENARIOS * N_POSITIONS / batched_s, 1
        ),
        "chunk_size": "auto",
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print("\nScenario-grid revaluation (1000 scenarios x 100 contracts):")
    print(f"  looped : {looped_s:.3f}s ({N_SCENARIOS / looped_s:,.0f} scen/s)")
    print(f"  batched: {batched_s:.3f}s ({N_SCENARIOS / batched_s:,.0f} scen/s)")
    print(f"  speedup: {speedup:.1f}x  ->  {BENCH_PATH.name}")


def test_chunked_runs_match_auto(grid):
    """Explicit chunk sizes never change the numbers, only the memory."""
    engine, shocks = grid
    auto = engine.revalue(shocks, with_timing=False, batch=True)
    for chunk in (17, 256):
        chunked = engine.revalue(
            shocks, with_timing=False, batch=True, chunk_size=chunk
        )
        np.testing.assert_array_equal(chunked.pv, auto.pv)
