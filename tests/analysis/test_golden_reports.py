"""Golden-snapshot tests for the CLI reports.

The committed goldens under ``tests/analysis/golden/`` were captured
from ``repro-cds serve --json`` and ``repro-cds risk --json`` **before**
the timing layers were rebuilt on :mod:`repro.sim` — so these tests
prove the rebuild (and any future change) leaves every simulated number
bit-identical, not merely close.  Host wall-clock keys are stripped;
everything else must match exactly, key order included.  The replay
reports' text renderings carry no wall-clock value, so ``serve``,
``simulate`` and ``gateway`` are also pinned byte for byte as text.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Keys measured on the host wall-clock — real time, never pinned.
VOLATILE = {
    "serve": {"host_seconds", "requests_per_sec_host"},
    "risk": {"host_seconds", "scenarios_per_sec"},
    "simulate": {"host_seconds"},
    "gateway_seed7": {"host_seconds", "requests_per_sec_host"},
}

ARGV = {
    "serve": [
        "--options", "8", "serve", "--json", "--requests", "400",
        "--rate", "20000", "--states", "32", "--cards", "2", "--seed", "5",
    ],
    "risk": [
        "--options", "8", "risk", "--json", "--scenarios", "64",
        "--cards", "2", "--seed", "5",
    ],
    "simulate": [
        "--options", "8", "simulate", "--json", "--requests", "400",
        "--rate", "5000", "--states", "32", "--cards", "2", "--seed", "5",
    ],
    "gateway_seed7": ["gateway", "--seed", "7", "--json"],
}

#: Reports whose text rendering is pinned too: ``ARGV`` without
#: ``--json``, golden ``<report>.txt``.
TEXT = ("gateway_seed7", "serve", "simulate")


def _strip(payload: dict, volatile: set[str]) -> dict:
    missing = volatile - payload.keys()
    assert not missing, f"expected volatile keys absent from report: {missing}"
    return {k: v for k, v in payload.items() if k not in volatile}


@pytest.mark.parametrize("report", sorted(ARGV))
def test_json_report_matches_golden(report, capsys):
    assert main(ARGV[report]) == 0
    produced = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN_DIR / f"{report}.json").read_text())
    assert json.dumps(_strip(produced, VOLATILE[report])) == json.dumps(
        _strip(golden, VOLATILE[report])
    )


@pytest.mark.parametrize("report", TEXT)
def test_text_report_matches_golden(report, capsys):
    assert main([a for a in ARGV[report] if a != "--json"]) == 0
    golden = (GOLDEN_DIR / f"{report}.txt").read_text()
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("report", sorted(ARGV))
def test_json_report_is_deterministic(report, capsys):
    """Same flags, same process → byte-identical simulated payloads."""
    assert main(ARGV[report]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(ARGV[report]) == 0
    second = json.loads(capsys.readouterr().out)
    assert _strip(first, VOLATILE[report]) == _strip(second, VOLATILE[report])
