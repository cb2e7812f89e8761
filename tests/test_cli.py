"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

_SERVE_REPLAY = dict(
    requests=10_000, rate=5000.0, traffic="poisson", max_batch=128,
    max_delay=1e-3, queue_depth=4096, states=256, cards=4, engines=5,
)

#: Each replaying subcommand's replay flags and their defaults.
REPLAY_DEFAULTS = {
    "serve": _SERVE_REPLAY,
    "dashboard": _SERVE_REPLAY,
    "simulate": dict(
        _SERVE_REPLAY, requests=8_000, rate=20_000.0, traffic="bursty"
    ),
    "gateway": dict(
        requests=4_000, rate=200_000.0, traffic="poisson", queue_depth=4096,
        states=64, cards=2, engines=5,
    ),
    "chaos": dict(
        requests=2000, rate=4000.0, max_batch=64, queue_depth=512, states=64,
        cards=4,
    ),
}


#: Pricing flags shared by risk, serve, simulate and dashboard.
_BOOK = dict(
    policy="least-loaded", workload="heterogeneous", chunk_size=None,
    backend="vectorized",
)

#: Every command's full parsed flag set with its defaults (``command``
#: and the global ``options`` aside); ``trace`` gets its positional.
PARSED_DEFAULTS = {
    "table1": dict(json=False),
    "table2": dict(json=False, engines=[1, 2, 5]),
    "cluster": dict(
        seed=None, json=False, cards=4, engines=5, policy="least-loaded",
        workload="uniform", sweep=None,
    ),
    "risk": dict(
        seed=None, json=False, cards=4, engines=5, **_BOOK, trace_out=None,
        metrics_out=None, faults=None, scenarios=1000, generator="mc",
        confidence=[0.95, 0.99], measure="var,es", no_batch=False,
    ),
    "serve": dict(
        seed=None, json=False, **_SERVE_REPLAY, **_BOOK, trace_out=None,
        metrics_out=None, faults=None, hedge=False,
    ),
    "simulate": dict(
        seed=None, json=False, **REPLAY_DEFAULTS["simulate"], **_BOOK,
        trace_out=None, metrics_out=None, faults=None, hedge=False,
        refresh_period=2e-3, refresh_rows=16,
    ),
    "gateway": dict(
        seed=None, json=False, requests=4_000, rate=200_000.0, traffic="poisson",
        cards=2, engines=5, queue_depth=4096, states=64, chunk_size=None,
        backend="vectorized", trace_out=None, metrics_out=None, faults=None,
        hedge=False, tenants=3, servers=2, cache="on", ticks=200,
        tick_rate=2_000.0,
    ),
    "chaos": dict(
        seed=None, json=False, requests=2000, rate=4000.0, cards=4, max_batch=64,
        queue_depth=512, states=64, trace_out=None, metrics_out=None,
        monitor=False, monitor_out=None, gateway=False,
    ),
    "dashboard": dict(
        seed=None, **_SERVE_REPLAY, **_BOOK, faults=None, hedge=False,
        out="dashboard.html", title=None, monitor_out=None,
    ),
    "bench-check": dict(json=False, only=None, fresh_from=None),
    "trace": dict(json=False, trace_file="trace.json", top=10),
    "backends": dict(json=False),
    "figures": dict(dot=False),
    "price": dict(maturity=5.0, frequency=4, recovery=0.4),
    "report": dict(),
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_engines(self):
        args = build_parser().parse_args(["table2", "--engines", "1", "3"])
        assert args.engines == [1, 3]

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.cards == 4
        assert args.policy == "least-loaded"
        assert args.engines == 5
        assert args.workload == "uniform"

    def test_cluster_bad_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster", "--policy", "fifo"])

    def test_risk_defaults(self):
        args = build_parser().parse_args(["risk"])
        assert args.scenarios == 1000
        assert args.cards == 4
        assert args.generator == "mc"
        assert args.confidence == [0.95, 0.99]
        assert args.measure == "var,es"
        assert args.seed is None
        assert not args.json

    def test_risk_bad_generator(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["risk", "--generator", "quantum"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.requests == 10_000
        assert args.rate == 5000.0
        assert args.cards == 4
        assert args.traffic == "poisson"
        assert args.max_batch == 128
        assert args.chunk_size is None
        assert args.seed is None
        assert not args.json

    def test_serve_bad_traffic(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--traffic", "tsunami"])

    def test_shared_flag_helper_covers_data_subcommands(self):
        """Every data-producing subcommand carries --json via the shared
        registration helper; the sampled ones carry --seed too."""
        for cmd in ("table1", "table2", "cluster", "risk", "serve"):
            args = build_parser().parse_args([cmd])
            assert hasattr(args, "json"), cmd
        for cmd in ("cluster", "risk", "serve"):
            args = build_parser().parse_args([cmd])
            assert hasattr(args, "seed"), cmd


class TestReplayFlags:
    @pytest.mark.parametrize("cmd", sorted(REPLAY_DEFAULTS))
    def test_defaults_per_command(self, cmd):
        """Each command takes exactly its replay flags, with its defaults."""
        args = build_parser().parse_args([cmd])
        expected = REPLAY_DEFAULTS[cmd]
        assert {dest: getattr(args, dest) for dest in expected} == expected
        for dest in set(_SERVE_REPLAY) - set(expected):
            assert not hasattr(args, dest), dest

    @pytest.mark.parametrize("cmd", PARSED_DEFAULTS)
    def test_full_flag_set_per_command(self, cmd):
        """Each command parses to exactly its flags and defaults: a flag
        dropped, added or re-defaulted fails here."""
        argv = [cmd, "trace.json"] if cmd == "trace" else [cmd]
        parsed = vars(build_parser().parse_args(argv))
        assert {k: v for k, v in parsed.items()
                if k not in ("command", "options")} == PARSED_DEFAULTS[cmd]

    def test_table_covers_every_command(self):
        commands = "{" + ",".join(PARSED_DEFAULTS) + "}"
        assert commands in build_parser().format_usage()


class TestCommands:
    def test_table1(self, capsys):
        assert main(["--options", "6", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Xilinx Vitis library CDS engine" in out

    def test_table2(self, capsys):
        assert main(["--options", "6", "table2", "--engines", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "Xeon" in out and "Opt/Watt" in out

    def test_cluster(self, capsys):
        assert main(["--options", "8", "cluster", "--cards", "4"]) == 0
        out = capsys.readouterr().out
        assert "aggregate:" in out and "options/s" in out
        assert "Util" in out and "Watts" in out

    def test_cluster_resource_error_is_clean(self, capsys):
        # Six engines never fit on the U280; the CLI reports it without a
        # traceback and exits 2.
        assert main(["--options", "4", "cluster", "--engines", "6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ceiling" in err

    def test_cluster_sweep(self, capsys):
        assert (
            main(
                [
                    "--options", "8",
                    "cluster",
                    "--cards", "2",
                    "--policy", "work-stealing",
                    "--workload", "skewed",
                    "--sweep", "1", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Speedup" in out
        assert "skewed" in out

    def test_figures_ascii(self, capsys):
        assert main(["--options", "2", "figures"]) == 0
        out = capsys.readouterr().out
        assert "timegrid" in out
        assert "hazard_acc" in out

    def test_figures_dot(self, capsys):
        assert main(["--options", "2", "figures", "--dot"]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out

    def test_price(self, capsys):
        assert main(["price", "--maturity", "3", "--frequency", "4"]) == 0
        out = capsys.readouterr().out
        assert "spread" in out and "bps" in out

    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Listing 1" in out
        assert "Vectorised engine estimate" in out


RISK_ARGS = ["--options", "6", "risk", "--scenarios", "20", "--cards", "2"]


class TestRiskCommand:
    def test_risk_report(self, capsys):
        assert main(RISK_ARGS + ["--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Risk report" in out
        assert "VaR" in out and "ES" in out
        assert "CS01 ladder" in out and "IR01 ladder" in out
        assert "JTD:" in out
        assert "repricings/s" in out

    def test_risk_deterministic_with_seed(self, capsys):
        assert main(RISK_ARGS + ["--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(RISK_ARGS + ["--seed", "7"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_risk_seed_changes_output(self, capsys):
        assert main(RISK_ARGS + ["--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(RISK_ARGS + ["--seed", "8"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_risk_measure_filter(self, capsys):
        assert main(RISK_ARGS + ["--seed", "7", "--measure", "var"]) == 0
        out = capsys.readouterr().out
        assert "VaR" in out
        assert " ES" not in out

    def test_risk_bad_measure_is_clean(self, capsys):
        assert main(RISK_ARGS + ["--measure", "cvar"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")

    def test_risk_generators(self, capsys):
        for gen in ("mixture", "historical", "parallel"):
            assert main(RISK_ARGS + ["--seed", "3", "--generator", gen]) == 0
            assert "Risk report" in capsys.readouterr().out


SERVE_ARGS = [
    "--options", "8",
    "serve",
    "--requests", "250",
    "--rate", "2000",
    "--cards", "2",
    "--engines", "2",
    "--states", "24",
]


class TestServeCommand:
    def test_serve_report(self, capsys):
        assert main(SERVE_ARGS + ["--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Serving report" in out
        assert "goodput" in out
        assert "p50" in out and "p99" in out
        assert "shed" in out

    def test_serve_deterministic_with_seed(self, capsys):
        assert main(SERVE_ARGS + ["--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(SERVE_ARGS + ["--seed", "7"]) == 0
        assert first == capsys.readouterr().out

    def test_serve_seed_changes_output(self, capsys):
        assert main(SERVE_ARGS + ["--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(SERVE_ARGS + ["--seed", "8"]) == 0
        assert first != capsys.readouterr().out

    def test_serve_batch1_still_serves(self, capsys):
        assert main(SERVE_ARGS + ["--seed", "7", "--max-batch", "1",
                                  "--max-delay", "0"]) == 0
        assert "goodput" in capsys.readouterr().out


class TestJsonOutput:
    def test_table1_json(self, capsys):
        assert main(["--options", "6", "table1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["key"] for r in rows} >= {"cpu_single_core", "vectorised_dataflow"}
        assert all("options_per_second" in r for r in rows)

    def test_table2_json(self, capsys):
        assert main(["--options", "6", "table2", "--engines", "1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["key"] == "cpu_24_cores"
        assert all("watts" in r for r in rows)

    def test_cluster_json(self, capsys):
        assert main(
            ["--options", "8", "cluster", "--cards", "2", "--seed", "3",
             "--sweep", "1", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cards"] == 2
        assert payload["seed"] == 3
        assert len(payload["per_card"]) == 2
        assert len(payload["sweep"]) == 2
        assert payload["options_per_second"] > 0

    def test_cluster_json_deterministic(self, capsys):
        args = ["--options", "8", "cluster", "--cards", "2", "--seed", "3",
                "--workload", "skewed", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert first == capsys.readouterr().out

    def test_serve_json(self, capsys):
        assert main(SERVE_ARGS + ["--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_requests"] == 250
        assert payload["seed"] == 7
        assert payload["n_offered"] == 250
        assert {"p50_s", "p95_s", "p99_s"} <= set(payload["latency"])
        assert "goodput_rps" in payload and "shed_rate" in payload
        assert len(payload["per_card"]) == 2
        assert payload["host_seconds"] > 0

    def test_risk_json(self, capsys):
        assert main(RISK_ARGS + ["--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_scenarios"] == 20
        assert payload["seed"] == 7
        assert len(payload["measures"]) == 2
        for m in payload["measures"]:
            assert m["var"] <= m["es"]
        assert payload["timing"]["n_cards"] == 2
        assert payload["cs01"]["kind"] == "cs01"


class TestBackendFlag:
    def test_risk_and_serve_default_backend(self):
        for cmd in ("risk", "serve"):
            args = build_parser().parse_args([cmd])
            assert args.backend == "vectorized", cmd

    def test_cluster_backend_is_not_a_base_choice(self):
        # The risk/serving commands shard across --cards themselves, and
        # `cluster` names a command, not a pricing backend.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["risk", "--backend", "cluster"])

    def test_risk_cpu_backend_runs_and_is_reported(self, capsys):
        assert main(RISK_ARGS + ["--seed", "7", "--backend", "cpu"]) == 0
        out = capsys.readouterr().out
        # cpu has no batch-tensor capability: the risk engine takes the
        # per-scenario path and the report says so.
        assert "backend cpu" in out
        assert "looped" in out

    def test_risk_backend_changes_only_floats_marginally(self, capsys):
        """vectorized and cpu agree to reassociation tolerance on VaR."""
        assert main(RISK_ARGS + ["--seed", "7", "--json"]) == 0
        vec = json.loads(capsys.readouterr().out)
        assert main(
            RISK_ARGS + ["--seed", "7", "--json", "--backend", "cpu"]
        ) == 0
        cpu = json.loads(capsys.readouterr().out)
        assert vec["backend"] == "vectorized" and cpu["backend"] == "cpu"
        assert vec["batched"] is True and cpu["batched"] is False
        for a, b in zip(vec["measures"], cpu["measures"]):
            assert abs(a["var"] - b["var"]) <= 1e-9 * max(1.0, abs(a["var"]))

    def test_serve_json_carries_backend(self, capsys):
        assert main(SERVE_ARGS + ["--seed", "7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "vectorized"


class TestBackendsCommand:
    def test_lists_registry(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in ("cpu", "vectorized", "dataflow"):
            assert name in out
        assert "open_session" in out

    def test_json_payload(self, capsys):
        assert main(["backends", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {r["name"]: r for r in rows}
        assert by_name["vectorized"]["supports_batch_tensor"] is True
        assert by_name["cpu"]["supports_batch_tensor"] is False
        assert by_name["dataflow"]["simulated_timing"] is True
        assert sorted(by_name) == ["cpu", "dataflow", "vectorized"]
