"""The timing-only replay of the engine network on the cost paths.

:meth:`ClusterNode.kernel_cycles` replaces a discrete-event run in
:func:`~repro.risk.sharding.simulate_grid_run` and
:meth:`~repro.api.cost.DispatchCostModel.calibrate`.  It must reject
what the discrete-event run rejected, with the same exception types, and
give the cycles that run reports on the benchmark's own batch.  (The
generated-config equality lives in
``tests/properties/test_prop_engine_timing.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.cost import DispatchCostModel
from repro.cluster.node import ClusterNode
from repro.core.curves import YieldCurve
from repro.engines.builder import _READ, _TimingNetwork
from repro.errors import DeadlockError, ResourceError, ValidationError
from repro.risk.engine import make_book
from repro.risk.sharding import simulate_grid_run
from repro.workloads.scenarios import PaperScenario

SC = PaperScenario(n_rates=16, n_options=6)
OPTIONS = list(make_book("heterogeneous", 6, seed=7).options)


def grid_run(options, yield_curve, *, n_engines=5):
    return simulate_grid_run(
        [[0, 1], [2]],
        options,
        yield_curve,
        SC.hazard_curve(),
        scenario=SC,
        policy="round-robin",
        n_engines=n_engines,
    )


def calibrate(options, yield_curve, *, n_engines=5):
    return DispatchCostModel.calibrate(
        SC, options, yield_curve, SC.hazard_curve(), n_engines=n_engines
    )


@pytest.mark.parametrize("timed", [grid_run, calibrate])
class TestSameRejections:
    def test_empty_book(self, timed):
        with pytest.raises(ValidationError):
            timed([], SC.yield_curve())

    def test_engine_count_that_does_not_fit(self, timed):
        with pytest.raises(ResourceError):
            timed(OPTIONS, SC.yield_curve(), n_engines=6)

    def test_non_positive_risky_annuity(self, timed):
        # Every discount factor underflows to zero, and so does the
        # annuity: the simulated combine stage rejected this batch.
        yc = SC.yield_curve()
        with pytest.raises(ValidationError, match="annuity"):
            timed(OPTIONS, YieldCurve(yc.times, np.full(len(yc), 1e4)))


class TestKernelCycles:
    def test_empty_chunk_rejected(self):
        with pytest.raises(ValidationError, match="empty chunk"):
            ClusterNode(0, SC).kernel_cycles([], SC.yield_curve(), SC.hazard_curve())

    def test_benchmark_batch_cycles(self):
        """The 100-position, 5-engine batch the risk benchmark times;
        420078.0 is the discrete-event run's figure."""
        sc = PaperScenario(n_options=100)
        options = list(make_book("heterogeneous", 100, seed=7).options)
        node = ClusterNode(0, sc, n_engines=5)
        cycles = node.kernel_cycles(options, sc.yield_curve(), sc.hazard_curve())
        assert cycles == 420078.0

    def test_equals_price(self):
        node = ClusterNode(0, SC, n_engines=2)
        curves = SC.yield_curve(), SC.hazard_curve()
        assert (
            node.kernel_cycles(OPTIONS, *curves)
            == node.price(OPTIONS, *curves).kernel_cycles
        )


def test_replay_reports_deadlock():
    """A process waiting on a stream nobody writes never finishes."""
    net = _TimingNetwork()
    s = net.stream("orphan")
    net.process("reader", [(_READ, s, 1.0)], reads=(s,))
    with pytest.raises(DeadlockError, match="reader"):
        net.replay()
