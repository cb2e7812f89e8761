"""Smoke tests for the benchmark harness, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import (
    END_TO_END,
    LAYER_UNITS,
    MIN_REPS,
    _check_bench_gateway,
    end_to_end,
    measure,
    per_layer,
    run_once,
)
from layers import ROOT, SELF_TIME_METRICS, LayerTracer
from provenance import PAPER_TOLERANCE, git_sha, paper_accuracy
from repro.gateway.engine import Gateway
from repro.serving.engine import QuoteServer
from repro.sim import Simulation
from workloads import BENCH_GATEWAY_SEED, GatewayZipf, QuoteBatch1, RiskMcGrid

REPO = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

TINY = {
    "gateway_zipf": lambda: GatewayZipf(n_requests=600),
    "quote_batch1": lambda: QuoteBatch1(n_requests=150),
    "risk_mc_grid": lambda: RiskMcGrid(n_scenarios=40, n_positions=8),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct_and_reports_every_metric(name):
    wl = TINY[name]()
    out = measure(wl, seed=3, seconds=0.0, trace=True, root=REPO)
    assert out.correct, out.problems
    assert len(out.reps) == len(out.traced) == MIN_REPS
    assert out.checked > 0 and out.mismatched == 0
    assert set(end_to_end(out)) == set(END_TO_END)
    assert set(per_layer(out)) == set(LAYER_UNITS)
    assert out.attempted == 2 * MIN_REPS * out.reps[0].n_ops


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_and_unattributed_sum_to_traced_wall(name):
    tracer = LayerTracer()
    rep = run_once(TINY[name](), 5, tracer)[0]
    metrics = rep.layers
    wall = tracer.wall_s
    self_total = sum(metrics[m] for m in SELF_TIME_METRICS.values())
    unattributed = metrics["trace.unattributed_frac"] * wall
    assert self_total + unattributed == pytest.approx(wall, rel=1e-9)
    # The traced wall is the root span: it covers the repetition the
    # harness timed from inside it, plus microseconds of bookkeeping.
    assert wall >= rep.wall_s
    assert wall == pytest.approx(rep.wall_s, rel=1e-2, abs=1e-3)
    assert tracer.self_s[ROOT] < wall


def test_tracer_restores_every_patch():
    before = (Gateway.serve, QuoteServer._run_batch, Simulation.schedule_at)
    run_once(TINY["quote_batch1"](), 1, LayerTracer())
    assert (Gateway.serve, QuoteServer._run_batch, Simulation.schedule_at) == before


def test_output_check_counts_mismatches(monkeypatch):
    wl = TINY["quote_batch1"]()
    _, inputs, system, result = run_once(wl, 2)
    real = QuoteServer.price_individually
    monkeypatch.setattr(
        QuoteServer, "price_individually",
        lambda self, reqs: [v + 1.0 for v in real(self, reqs)],
    )
    check = wl.check(system, inputs, result, 2)
    assert check.n_mismatched == check.n_checked > 0


def test_nondeterminism_fails_the_run(monkeypatch):
    wl = TINY["risk_mc_grid"]()
    digests = iter(range(100))
    monkeypatch.setattr(wl, "digest", lambda result: next(digests))
    out = measure(wl, seed=1, seconds=0.0, trace=False, root=REPO)
    assert not out.correct
    assert any("nondeterminism" in p for p in out.problems)


def test_gateway_reproduces_bench_gateway_json():
    if not (REPO / "BENCH_gateway.json").is_file():
        pytest.skip("no BENCH_gateway.json in this checkout")
    wl = GatewayZipf()
    _, _, _, result = run_once(wl, BENCH_GATEWAY_SEED)
    assert _check_bench_gateway(wl, BENCH_GATEWAY_SEED, result, REPO) == []
    bench = json.loads((REPO / "BENCH_gateway.json").read_text())
    assert wl.bench_block(result) == bench["cached"]
    # Any other seed is a different trace, so the check stands aside.
    assert _check_bench_gateway(wl, BENCH_GATEWAY_SEED + 1, result, REPO) == []


def test_paper_accuracy_within_tolerance():
    rows = paper_accuracy()
    assert len(rows) == 5 + 4 * 3
    assert all(err <= PAPER_TOLERANCE for *_, err in rows)


def test_reported_metrics_match_benchmark_json():
    from run import REPORTED_END_TO_END

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(REPORTED_END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: END_TO_END[k][0] for k in REPORTED_END_TO_END
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == sorted(TINY)


def test_git_sha_absent_outside_a_repository(tmp_path):
    assert git_sha(tmp_path) is None


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "risk_mc_grid",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
