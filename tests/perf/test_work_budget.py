"""Deterministic work budgets on the simulator's host cost paths.

Host wall time on a shared machine swings too much to gate a speed-up;
a count of the expensive calls does not.  Each budget below is the work
one replay step may do, so an edit that puts the work back fails here
even though every simulated number would still match.

The engine network's cost is paid by the timing-only replay
(:meth:`~repro.cluster.node.ClusterNode.kernel_cycles`), once per timed
revalue and once per serving setup, and never by the token-level DES
(:meth:`~repro.dataflow.engine.Simulator.run`).
"""

from __future__ import annotations

import pytest

from repro.cluster.batching import BatchQueue
from repro.cluster.node import ClusterNode
from repro.dataflow.engine import Simulator
from repro.gateway import Gateway
from repro.risk import ScenarioRiskEngine, make_book, monte_carlo
from repro.serving import QuoteServer, make_market_tape
from repro.workloads.scenarios import PaperScenario


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(n_rates=64, n_options=8)


@pytest.fixture(scope="module")
def book():
    return make_book("heterogeneous", 8, seed=5)


@pytest.fixture(scope="module")
def tape(scenario):
    return make_market_tape(
        scenario.yield_curve(), scenario.hazard_curve(), 12, seed=3
    )


@pytest.fixture
def calls(monkeypatch):
    """Count DES runs and timing-replay entries while the test runs."""
    counts = {"des_runs": 0, "timing_runs": 0}

    def counting(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(Simulator, "run", counting("des_runs", Simulator.run))
    monkeypatch.setattr(
        ClusterNode,
        "kernel_cycles",
        counting("timing_runs", ClusterNode.kernel_cycles),
    )
    return counts


def test_timed_revalue(scenario, book, calls):
    engine = ScenarioRiskEngine(book, scenario=scenario, n_cards=2, n_engines=2)
    shocks = monte_carlo(
        scenario.yield_curve(), scenario.hazard_curve(), 16, seed=11
    )
    calls.update(des_runs=0, timing_runs=0)
    result = engine.revalue(shocks)
    assert result.timing is not None
    assert calls == {"des_runs": 0, "timing_runs": 1}


def test_gateway_construction(scenario, book, tape, calls):
    Gateway(
        book,
        tape,
        scenario=scenario,
        n_servers=3,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
    )
    assert calls == {"des_runs": 0, "timing_runs": 1}


def test_quote_server_construction(scenario, book, tape, calls):
    QuoteServer(book, tape, scenario=scenario, n_cards=2, n_engines=2)
    assert calls == {"des_runs": 0, "timing_runs": 1}
