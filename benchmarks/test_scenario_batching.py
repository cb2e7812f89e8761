"""Benchmark: looped versus batched scenario-grid revaluation.

This is the loop-to-array transformation the paper's CPU baseline makes
with OpenMP/``-O3`` inner-loop vectorisation (Section II.B), applied to
the risk subsystem's hottest path: instead of one ``price_packed_book``
call per scenario, the whole ``(scenarios x options x timepoints)``
tensor is priced by a few chunked ``price_packed_many`` kernel
invocations.

The run asserts the batched path is bit-identical on the risk study's
acceptance grid (1000 Monte Carlo scenarios x 100 contracts, from
:data:`repro.monitor.regress.STUDIES`) and that chunking never changes
the numbers.  The speedup itself is wall-clock and machine-dependent,
so it is measured only by ``repro-cds bench-check``'s risk study,
against the committed ``BENCH_risk.json``; the ``perfbench`` harness's
``risk_mc_grid`` workload gates host speed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.monitor.regress import STUDIES, risk_grid


@pytest.fixture(scope="module")
def grid():
    return risk_grid(**STUDIES["risk"].params)


def test_batched_grid_is_bit_identical(grid):
    engine, shocks = grid
    looped = engine.revalue(shocks, with_timing=False, batch=False)
    batched = engine.revalue(shocks, with_timing=False, batch=True)
    np.testing.assert_array_equal(batched.pv, looped.pv)
    np.testing.assert_array_equal(batched.pnl, looped.pnl)


def test_chunked_runs_match_auto(grid):
    """Explicit chunk sizes never change the numbers, only the memory."""
    engine, shocks = grid
    auto = engine.revalue(shocks, with_timing=False, batch=True)
    for chunk in (17, 256):
        chunked = engine.revalue(
            shocks, with_timing=False, batch=True, chunk_size=chunk
        )
        np.testing.assert_array_equal(chunked.pv, auto.pv)
