"""Package-level tests: public API surface, module entry point, docs code."""

import os
import subprocess
import sys

import pytest

import repro


class TestPublicAPI:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.32.0"

    def test_risk_exports_resolve(self):
        import repro.risk as risk

        for name in risk.__all__:
            assert hasattr(risk, name), name

    def test_cluster_exports_resolve(self):
        import repro.cluster as cluster

        for name in cluster.__all__:
            assert hasattr(cluster, name), name

    def test_analysis_exports_resolve(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_subpackage_exports_resolve(self):
        import repro.core as core
        import repro.dataflow as dataflow
        import repro.fpga as fpga
        import repro.gateway as gateway
        import repro.hls as hls

        for mod in (core, dataflow, fpga, gateway, hls):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name}"


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        # The child process does not inherit pytest's `pythonpath` ini
        # setting, so put the imported package's parent dir on its path.
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "price", "--maturity", "2"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0
        assert "spread" in proc.stdout


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        """The README's quickstart code, executed verbatim."""
        from repro import CDSOption, HazardCurve, YieldCurve, price_cds

        yc = YieldCurve([0.5, 1, 2, 5, 10], [0.010, 0.013, 0.017, 0.022, 0.026])
        hc = HazardCurve([1, 3, 5, 10], [0.010, 0.014, 0.019, 0.028])
        result = price_cds(
            CDSOption(maturity=5.0, frequency=4, recovery_rate=0.4), yc, hc
        )
        assert result.spread_bps > 0

        from repro import PaperScenario, VectorizedDataflowEngine

        run = VectorizedDataflowEngine(PaperScenario(n_options=8)).run()
        assert run.options_per_second > 0

    def test_doctests(self):
        """Run the doctest examples of every module that has one.

        The modules are found by scanning the package's source for
        ``>>> ``, so a new example cannot be left out of the run.
        """
        import doctest
        import importlib
        from pathlib import Path

        package = Path(repro.__file__).parent
        modules = []
        for path in sorted(package.rglob("*.py")):
            if ">>> " not in path.read_text():
                continue
            parts = path.relative_to(package.parent).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            modules.append(importlib.import_module(".".join(parts)))
        assert repro in modules
        for mod in modules:
            failures, attempted = doctest.testmod(mod)
            assert failures == 0, mod.__name__
            assert attempted > 0, mod.__name__
