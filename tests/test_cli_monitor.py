"""CLI coverage for the monitoring surface: ``chaos`` telemetry and
monitor outputs, the ``dashboard`` command, and the ``bench-check``
perf-watchdog gate."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.monitor.regress import STUDIES

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Small chaos matrix: short trace, tiny tape, six options.
CHAOS_ARGS = [
    "--options", "6",
    "chaos",
    "--seed", "7",
    "--requests", "400",
    "--states", "32",
]


class TestParser:
    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.requests == 2000
        assert args.rate == 4000.0
        assert args.cards == 4
        assert not args.monitor
        assert args.monitor_out is None
        assert args.trace_out is None and args.metrics_out is None
        assert not args.json

    def test_dashboard_defaults(self):
        args = build_parser().parse_args(["dashboard"])
        assert args.out == "dashboard.html"
        assert args.title is None
        assert args.monitor_out is None
        assert args.faults is None
        assert args.requests == 10_000

    def test_bench_check_defaults(self):
        args = build_parser().parse_args(["bench-check"])
        assert args.only is None
        assert args.fresh_from is None

    def test_bench_check_bad_only(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-check", "--only", "examples"])

    @pytest.mark.parametrize("option", ["--serving", "--risk", "--gateway"])
    def test_bench_check_takes_no_file_paths(self, option):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-check", option, "BENCH.json"])


class TestChaosTelemetryOut:
    def test_trace_and_metrics_files_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(
            CHAOS_ARGS
            + ["--trace-out", str(trace), "--metrics-out", str(metrics)]
        ) == 0
        captured = capsys.readouterr()
        assert f"wrote trace: {trace}" in captured.err
        assert f"wrote metrics: {metrics}" in captured.err

        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        thread_names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert any(t.startswith("card") for t in thread_names)

        snapshot = json.loads(metrics.read_text())
        assert "schema_version" in snapshot
        assert any(
            k.startswith("serving_batches_total")
            for k in snapshot["metrics"]
        )

    def test_chaos_runs_without_telemetry_flags(self, capsys):
        assert main(CHAOS_ARGS) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "crash-1of4" in out
        assert "Monitoring" not in out  # off by default


class TestChaosMonitor:
    def test_monitor_flag_renders_per_cell_sections(self, capsys):
        assert main(CHAOS_ARGS + ["--monitor"]) == 0
        out = capsys.readouterr().out
        assert "Monitoring (per cell):" in out
        assert "- crash-1of4:" in out
        assert "budget spent" in out

    def test_monitor_out_implies_monitor_and_writes_document(
        self, tmp_path, capsys
    ):
        path = tmp_path / "monitor.json"
        assert main(CHAOS_ARGS + ["--monitor-out", str(path)]) == 0
        captured = capsys.readouterr()
        assert "Monitoring (per cell):" in captured.out
        assert f"wrote monitor: {path}" in captured.err
        doc = json.loads(path.read_text())
        assert doc["seed"] == 7
        assert "schema_version" in doc
        assert "crash-1of4" in doc["cells"]
        cell = doc["cells"]["crash-1of4"]
        assert {"slos", "alerts", "detection"} <= set(cell)

    def test_json_carries_monitor_only_when_enabled(self, capsys):
        assert main(CHAOS_ARGS + ["--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert "monitor" not in plain
        assert main(CHAOS_ARGS + ["--json", "--monitor"]) == 0
        monitored = json.loads(capsys.readouterr().out)
        assert set(monitored["monitor"]) == {r["name"] for r in plain["rows"]}
        # Monitoring observes without perturbing the resilience rows.
        assert monitored["rows"] == plain["rows"]


DASHBOARD_ARGS = [
    "--options", "6",
    "dashboard",
    "--seed", "7",
    "--requests", "400",
    "--rate", "4000",
    "--states", "32",
    "--max-batch", "64",
    "--queue-depth", "512",
]


class TestDashboardCommand:
    def test_writes_self_contained_html(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        assert main(DASHBOARD_ARGS + ["--out", str(out)]) == 0
        assert f"wrote dashboard: {out}" in capsys.readouterr().err
        page = out.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page
        assert "seed 7" in page  # derived title carries the run config

    def test_faulted_run_with_monitor_out(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        mon = tmp_path / "monitor.json"
        assert main(
            DASHBOARD_ARGS
            + [
                "--faults", "crash:card=1,at=0.05,repair=0.1",
                "--out", str(out),
                "--monitor-out", str(mon),
                "--title", "crash cell",
            ]
        ) == 0
        capsys.readouterr()
        assert "crash cell" in out.read_text()
        doc = json.loads(mon.read_text())
        assert doc["detection"] is not None
        assert doc["detection"]["detected"] is True


@pytest.fixture()
def committed_snapshots():
    return {
        name: json.loads((REPO_ROOT / f"BENCH_{name}.json").read_text())
        for name in STUDIES
    }


@pytest.fixture()
def bench_argv(tmp_path, monkeypatch, committed_snapshots):
    """bench-check argv factory run from a tmp directory holding copies
    of the committed files, fed by a --fresh-from file so no study
    re-runs."""
    for name, snapshot in committed_snapshots.items():
        (tmp_path / f"BENCH_{name}.json").write_text(json.dumps(snapshot))
    monkeypatch.chdir(tmp_path)

    def build(fresh):
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text(json.dumps(fresh))
        return ["bench-check", "--fresh-from", str(fresh_path)]

    return build


class TestBenchCheckCommand:
    def test_identical_snapshots_pass(self, bench_argv, committed_snapshots,
                                      capsys):
        assert main(bench_argv(committed_snapshots)) == 0
        out = capsys.readouterr().out
        assert "[ok  ]" in out and "[FAIL]" not in out

    def test_goodput_regression_fails(self, bench_argv, committed_snapshots,
                                      capsys):
        doctored = json.loads(json.dumps(committed_snapshots))
        doctored["serving"]["coalesced"]["goodput_rps"] *= 0.5
        assert main(bench_argv(doctored)) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "goodput_rps" in out

    def test_json_payload(self, bench_argv, committed_snapshots, capsys):
        assert main(bench_argv(committed_snapshots) + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        metrics = {c["metric"] for c in payload["checks"]}
        assert "coalesced.goodput_rps" in metrics
        assert "speedup" in metrics
        assert "cached.cache_hit_rate" in metrics
        assert all(c["ok"] for c in payload["checks"])
        # The snapshots judged ride along: the way a BENCH file is
        # regenerated on purpose.
        assert payload["fresh"] == committed_snapshots

    def test_only_filter_skips_the_other_benchmark(
        self, bench_argv, committed_snapshots, capsys
    ):
        argv = bench_argv(committed_snapshots) + ["--only", "serving"]
        assert main(argv) == 0
        payload_metrics = capsys.readouterr().out
        assert "speedup" not in payload_metrics

    def test_json_fresh_holds_only_the_judged_study(
        self, bench_argv, committed_snapshots, capsys
    ):
        fresh = {"gateway": committed_snapshots["gateway"]}
        argv = bench_argv(fresh) + ["--only", "gateway", "--json"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {c["benchmark"] for c in payload["checks"]} == {"gateway"}
        assert payload["fresh"] == fresh

    def test_missing_committed_file_is_clean_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["bench-check", "--only", "serving"]) == 2
        assert capsys.readouterr().err.startswith("error:")


#: Small serving replay for the output-path checks.
SERVE_ARGS = [
    "--options", "6",
    "serve",
    "--seed", "7",
    "--requests", "100",
    "--states", "8",
]


class TestFilePathErrors:
    """Unreadable or unwritable paths the user gives are clean errors
    naming the flag (exit 2, ``error:`` on stderr), never tracebacks."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (SERVE_ARGS + ["--trace-out"], "--trace-out"),
            (SERVE_ARGS + ["--metrics-out"], "--metrics-out"),
            (CHAOS_ARGS + ["--monitor-out"], "--monitor-out"),
            (DASHBOARD_ARGS + ["--out"], "--out"),
        ],
    )
    def test_unwritable_output(self, tmp_path, capsys, argv, flag):
        missing = tmp_path / "no-such-dir" / "out.json"
        assert main(argv + [str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"cannot write {flag} file" in err and str(missing) in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read --fresh-from file"),
            ("{not json", "--fresh-from is not valid JSON"),
            ("[1]", "--fresh-from must hold a JSON object, got list"),
        ],
    )
    def test_bad_fresh_from(self, tmp_path, capsys, content, message):
        path = tmp_path / "fresh.json"
        if content is not None:
            path.write_text(content)
        assert main(["bench-check", "--fresh-from", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err
