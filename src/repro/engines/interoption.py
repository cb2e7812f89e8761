"""Variant 3: the free-running inter-option dataflow engine.

"We modified the engine to run continually between options.  This required
changing the input and output option parameters to be streams, rather than
individual scalar values, and also involved each dataflow stage being aware
of the overall number of options" (paper Section III).  One kernel
invocation processes the entire batch: the invocation overhead and the
pipeline fill are paid once, and throughput settles at the bottleneck
stage's steady-state rate — here the fixed-bound interpolation table scan.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.engine import SimulationResult, Simulator
from repro.engines.base import CDSEngineBase, EngineWorkload
from repro.engines.builder import (
    NetworkTiming,
    build_dataflow_network,
    engine_resources,
    time_dataflow_network,
)
from repro.engines.stages import StageModels
from repro.engines.xilinx_baseline import _sink_to_array
from repro.hls.resources import ResourceUsage

__all__ = ["InterOptionDataflowEngine", "run_streaming", "time_streaming"]


def run_streaming(
    scenario,
    workload: EngineWorkload,
    indices: list[int],
    *,
    replication: int,
    sim_name: str,
) -> tuple[dict[int, float], SimulationResult]:
    """One free-running invocation over ``indices``.

    Shared by the inter-option engine (``replication=1``), the vectorised
    engine (``replication=k``) and each engine of the multi-engine system
    (chunked indices).  Returns the result sink and the simulation result;
    the caller adds invocation overhead.
    """
    models = StageModels.for_scenario(scenario, interleaved=True)
    sim = Simulator(sim_name)
    handles = build_dataflow_network(
        sim,
        workload,
        indices,
        models,
        stream_depth=scenario.stream_depth,
        replication=replication,
        uram_ports=scenario.effective_uram_ports,
    )
    res = sim.run()
    return handles.results_sink, res


def time_streaming(
    scenario,
    workload: EngineWorkload,
    indices: list[int],
    *,
    replication: int,
) -> NetworkTiming:
    """Cycle counts of :func:`run_streaming`'s invocation, without values.

    The timing-only replay of the same network
    (:func:`~repro.engines.builder.time_dataflow_network`): its makespan
    equals the simulation result's exactly.
    """
    return time_dataflow_network(
        workload,
        indices,
        StageModels.for_scenario(scenario, interleaved=True),
        stream_depth=scenario.stream_depth,
        replication=replication,
        uram_ports=scenario.effective_uram_ports,
    )


class InterOptionDataflowEngine(CDSEngineBase):
    """Free-running dataflow across the whole batch (Table I row 4)."""

    name = "dataflow_interoption"

    def _execute(
        self, workload: EngineWorkload
    ) -> tuple[np.ndarray, float, int, list[SimulationResult]]:
        n = workload.n_options
        sink, res = run_streaming(
            self.scenario,
            workload,
            list(range(n)),
            replication=1,
            sim_name="dataflow_interoption",
        )
        cycles = res.makespan_cycles + self.scenario.invocation_overhead_cycles
        spreads = _sink_to_array(sink, n, self.name)
        return spreads, cycles, 1, [res]

    def resources(self) -> ResourceUsage:
        """Same fabric as the per-option dataflow engine (control differs)."""
        return engine_resources(self.scenario, replication=1, interleaved=True)
