"""The perf watchdog: tolerance policies and the bench-check gate.

Measurement is decoupled from judgment: every test here feeds
pre-measured "fresh" snapshots through :func:`bench_check`, so the
watchdog's verdict logic is exercised without re-running benchmarks.
The CI tier-2 job runs the real measurement path.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ValidationError
from repro.monitor.regress import (
    STUDIES,
    CheckResult,
    Study,
    Tolerance,
    _lookup,
    bench_check,
    compare_snapshots,
    render_check_results,
)


class TestTolerance:
    def test_higher_is_better(self):
        tol = Tolerance(rel=0.1, direction="higher-is-better")
        assert tol.ok(100.0, 95.0)  # within 10% below
        assert tol.ok(100.0, 150.0)  # improvement never fails
        assert not tol.ok(100.0, 85.0)

    def test_lower_is_better(self):
        tol = Tolerance(rel=0.1, direction="lower-is-better")
        assert tol.ok(10.0, 10.5)
        assert tol.ok(10.0, 1.0)
        assert not tol.ok(10.0, 12.0)

    def test_two_sided(self):
        tol = Tolerance(rel=0.1, direction="two-sided")
        assert tol.ok(100.0, 105.0)
        assert not tol.ok(100.0, 120.0)
        assert not tol.ok(100.0, 80.0)

    def test_abs_and_rel_combine(self):
        tol = Tolerance(rel=0.0, abs=0.5, direction="lower-is-better")
        assert tol.ok(0.0, 0.4)
        assert not tol.ok(0.0, 0.6)

    def test_bad_direction_raises(self):
        with pytest.raises(ValidationError):
            Tolerance(direction="sideways")

    def test_negative_slack_raises(self):
        with pytest.raises(ValidationError):
            Tolerance(rel=-0.1)


class TestCompare:
    def test_missing_metric_fails_the_check(self):
        results = compare_snapshots(
            "b", {"x": 1.0}, {},
            {"x": Tolerance(direction="two-sided")},
        )
        assert len(results) == 1
        assert not results[0].ok
        assert "fresh" in results[0].detail

    def test_dotted_paths(self):
        committed = {"coalesced": {"goodput_rps": 100.0}}
        fresh = {"coalesced": {"goodput_rps": 99.5}}
        results = compare_snapshots(
            "b", committed, fresh,
            {"coalesced.goodput_rps": Tolerance(rel=0.01)},
        )
        assert results[0].ok

    def test_check_result_to_dict(self):
        r = CheckResult("b", "m", 1.0, 2.0, False, "d")
        assert r.to_dict()["metric"] == "m"


@pytest.fixture()
def bench_files(tmp_path, monkeypatch):
    serving = {
        "coalesced": {
            "goodput_rps": 59684.5,
            "p99_ms": 1.743,
            "shed_rate": 0.0,
            "deadline_hit_rate": 1.0,
            "n_dispatches": 389,
            "mean_batch_requests": 30.85,
        },
        "batch1": {"goodput_rps": 6342.6},
        "goodput_ratio": 9.41,
    }
    risk = {"speedup": 4.99}
    gateway = {
        "cached": {
            "goodput_rps": 108173.9,
            "cache_hit_rate": 0.585,
            "p99_ms": 71.364,
            "shed_rate": 0.1823,
        },
        "uncached": {"goodput_rps": 19434.8},
        "goodput_ratio": 5.57,
    }
    fresh = {"serving": serving, "risk": risk, "gateway": gateway}
    for name, snapshot in fresh.items():
        (tmp_path / f"BENCH_{name}.json").write_text(json.dumps(snapshot))
    monkeypatch.chdir(tmp_path)
    return {"fresh": fresh}


def _check(bench_files, *, fresh=None, only=None):
    code, results, _ = bench_check(
        only=only,
        fresh=fresh if fresh is not None else bench_files["fresh"],
    )
    return code, results


class TestBenchCheck:
    def test_identical_snapshots_pass(self, bench_files):
        code, results = _check(bench_files)
        assert code == 0
        assert all(r.ok for r in results)
        assert len(results) == sum(len(s.checks) for s in STUDIES.values())

    def test_goodput_regression_fails(self, bench_files):
        fresh = json.loads(json.dumps(bench_files["fresh"]))
        fresh["serving"]["coalesced"]["goodput_rps"] *= 0.8
        code, results = _check(bench_files, fresh=fresh)
        assert code == 1
        failing = [r for r in results if not r.ok]
        assert [r.metric for r in failing] == ["coalesced.goodput_rps"]

    def test_goodput_improvement_passes(self, bench_files):
        fresh = json.loads(json.dumps(bench_files["fresh"]))
        fresh["serving"]["coalesced"]["goodput_rps"] *= 1.5
        fresh["serving"]["goodput_ratio"] *= 1.5
        code, _ = _check(bench_files, fresh=fresh)
        assert code == 0

    def test_latency_regression_fails(self, bench_files):
        fresh = json.loads(json.dumps(bench_files["fresh"]))
        fresh["serving"]["coalesced"]["p99_ms"] *= 2.0
        code, _ = _check(bench_files, fresh=fresh)
        assert code == 1

    def test_risk_speedup_collapse_fails(self, bench_files):
        code, results = _check(
            bench_files, only="risk", fresh={"risk": {"speedup": 2.0}}
        )
        assert code == 1
        # Wall-clock wobble inside the generous floor still passes.
        code, _ = _check(
            bench_files, only="risk", fresh={"risk": {"speedup": 3.5}}
        )
        assert code == 0

    def test_cache_hit_rate_collapse_fails(self, bench_files):
        fresh = json.loads(json.dumps(bench_files["fresh"]))
        fresh["gateway"]["cached"]["cache_hit_rate"] = 0.3
        code, results = _check(bench_files, fresh=fresh, only="gateway")
        assert code == 1
        failing = [r for r in results if not r.ok]
        assert [r.metric for r in failing] == ["cached.cache_hit_rate"]

    def test_gateway_ratio_regression_fails(self, bench_files):
        fresh = json.loads(json.dumps(bench_files["fresh"]))
        fresh["gateway"]["goodput_ratio"] = 3.0
        code, _ = _check(bench_files, fresh=fresh, only="gateway")
        assert code == 1

    def test_uncached_improvement_passes(self, bench_files):
        # A faster raw path shrinks the ratio but is not a regression as
        # long as the cached side holds its own floor.
        fresh = json.loads(json.dumps(bench_files["fresh"]))
        fresh["gateway"]["uncached"]["goodput_rps"] *= 1.3
        fresh["gateway"]["goodput_ratio"] = round(
            fresh["gateway"]["cached"]["goodput_rps"]
            / fresh["gateway"]["uncached"]["goodput_rps"],
            2,
        )
        code, _ = _check(bench_files, fresh=fresh, only="gateway")
        assert code == 1  # ratio floor is 5% — a 30% drop fails
        fresh["gateway"]["goodput_ratio"] = bench_files["fresh"]["gateway"][
            "goodput_ratio"
        ] * 0.97
        code, _ = _check(bench_files, fresh=fresh, only="gateway")
        assert code == 0

    def test_only_restricts_the_run(self, bench_files):
        code, results = _check(
            bench_files, only="serving",
            fresh={"serving": bench_files["fresh"]["serving"]},
        )
        assert code == 0
        assert {r.benchmark for r in results} == {"serving"}
        code, results = _check(
            bench_files, only="gateway",
            fresh={"gateway": bench_files["fresh"]["gateway"]},
        )
        assert code == 0
        assert {r.benchmark for r in results} == {"gateway"}

    def test_bad_only_raises(self):
        with pytest.raises(ValidationError):
            bench_check(only="gpu")

    def test_missing_bench_file_raises(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError):
            bench_check(only="serving", fresh={"serving": {}})

    def test_render_marks_failures(self, bench_files):
        fresh = json.loads(json.dumps(bench_files["fresh"]))
        fresh["serving"]["coalesced"]["goodput_rps"] *= 0.5
        _, results = _check(bench_files, fresh=fresh, only="serving")
        text = render_check_results(results)
        assert "FAIL" in text
        assert "1 failing" in text


class _Result:
    """A stand-in serving/gateway result: every metric 1, one tenant."""

    tenant = "t0"
    tier = "gold"

    def __getattr__(self, name):
        if name == "tenants":
            return [self]
        return self if name == "latency" else 1


def _shape(node):
    """The key structure of a snapshot (lists by their first entry)."""
    if isinstance(node, dict):
        return {k: _shape(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_shape(v) for v in node[:1]]
    return None


class TestStudies:
    def test_measure_renders_the_run(self):
        study = Study(
            params={"n": 2},
            run=lambda p: (p["n"] * 3,),
            snapshot=lambda p, results: {"n": p["n"], "out": results[0]},
            checks={},
        )
        assert study.measure() == {"n": 2, "out": 6}

    @pytest.mark.parametrize("name", sorted(STUDIES))
    def test_snapshot_renders_the_committed_schema(self, name):
        root = Path(__file__).resolve().parents[2]
        committed = json.loads((root / f"BENCH_{name}.json").read_text())
        study = STUDIES[name]
        results = (2.0, 0.5) if name == "risk" else (_Result(), _Result())
        snapshot = study.snapshot(study.params, results)
        assert _shape(snapshot) == _shape(committed)
        for key in ("schema_version", "benchmark"):
            assert snapshot[key] == committed[key]

    def test_risk_snapshot_derives_rates_from_timings(self):
        study = STUDIES["risk"]
        snapshot = study.snapshot(study.params, (2.0, 0.5))
        n = study.params["n_scenarios"]
        assert snapshot["speedup"] == 4.0
        assert snapshot["scenarios_per_sec_looped"] == n / 2.0
        assert snapshot["scenarios_per_sec_batched"] == n / 0.5
        assert snapshot["repricings_per_sec_batched"] == (
            n * study.params["n_positions"] / 0.5
        )

    def test_studies_missing_from_fresh_are_measured(
        self, bench_files, monkeypatch
    ):
        calls = []

        def run(params):
            calls.append(params)
            return 5.0, 1.0

        monkeypatch.setitem(STUDIES, "risk", replace(STUDIES["risk"], run=run))
        code, _, snapshots = bench_check(only="risk")
        assert calls == [STUDIES["risk"].params]
        assert code == 0
        assert snapshots["risk"]["speedup"] == 5.0

    def test_studies_in_fresh_are_not_rerun(self, bench_files, monkeypatch):
        def run(params):
            raise AssertionError("study re-ran")

        for name in list(STUDIES):
            monkeypatch.setitem(STUDIES, name, replace(STUDIES[name], run=run))
        code, _, snapshots = bench_check(fresh=bench_files["fresh"])
        assert code == 0
        assert snapshots == bench_files["fresh"]

    def test_only_returns_the_judged_snapshot(self, bench_files):
        _, _, snapshots = bench_check(
            only="gateway", fresh=bench_files["fresh"]
        )
        assert snapshots == {"gateway": bench_files["fresh"]["gateway"]}


class TestCommittedBenchFiles:
    """The repo's own BENCH files must satisfy the watchdog's schema."""

    @pytest.mark.parametrize("name", sorted(STUDIES))
    def test_committed_files_carry_every_checked_metric(self, name):
        root = Path(__file__).resolve().parents[2]
        committed = json.loads((root / f"BENCH_{name}.json").read_text())
        for metric in STUDIES[name].checks:
            assert _lookup(committed, metric) is not None, metric
        assert committed[
            "grid" if name == "risk" else "offered"
        ] == STUDIES[name].params
