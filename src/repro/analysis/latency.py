"""Per-option latency analysis from simulation traces.

Throughput (options/second) is the paper's batch metric; its future-work
direction — "combining our optimised CDS engine with Xilinx's high
frequency trading AAT platform" — cares about *latency*: how long after an
option enters the engine does its spread emerge?

This module reconstructs per-option completion times from a traced
free-running engine run and summarises the latency distribution, giving the
streaming-session view an HFT integration would need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.validation import check_range
from repro.dataflow.engine import Simulator
from repro.dataflow.tracing import Trace
from repro.telemetry import NULL_RECORDER
from repro.engines.base import EngineWorkload
from repro.engines.builder import build_dataflow_network
from repro.engines.stages import StageModels
from repro.errors import ValidationError
from repro.workloads.scenarios import PaperScenario

__all__ = ["LatencyProfile", "measure_streaming_latency"]


@dataclass(frozen=True)
class LatencyProfile:
    """Latency distribution of a streaming engine session.

    All figures are in cycles; convert with the scenario clock.

    Attributes
    ----------
    completion_cycles:
        Per-option completion times (cycle at which the spread token was
        drained), in option order.
    inter_completion_cycles:
        Gaps between consecutive completions (the steady-state cadence —
        its reciprocal is the throughput).
    first_result_cycles:
        Fill latency: cycles until the first spread emerged.
    """

    completion_cycles: np.ndarray
    inter_completion_cycles: np.ndarray
    first_result_cycles: float

    @property
    def steady_cadence_cycles(self) -> float:
        """Median inter-completion gap (robust steady-state cadence)."""
        if self.inter_completion_cycles.size == 0:
            return 0.0
        return float(np.median(self.inter_completion_cycles))

    def percentile(self, q: float) -> float:
        """Percentile of the inter-completion gaps (tail cadence)."""
        check_range(q, "q", "[0, 100]")
        if self.inter_completion_cycles.size == 0:
            return 0.0
        return float(np.percentile(self.inter_completion_cycles, q))

    def render(self, clock_hz: float) -> str:
        """Text summary at the given clock."""
        us = 1e6 / clock_hz
        lines = [
            f"streaming latency over {self.completion_cycles.size} options:",
            f"  fill (first result):   {self.first_result_cycles * us:10.1f} us",
            f"  steady cadence (p50):  {self.steady_cadence_cycles * us:10.1f} us",
            f"  cadence p95:           {self.percentile(95) * us:10.1f} us",
            f"  cadence p99:           {self.percentile(99) * us:10.1f} us",
        ]
        return "\n".join(lines)


def measure_streaming_latency(
    scenario: PaperScenario,
    *,
    replication: int | None = None,
    n_options: int | None = None,
) -> LatencyProfile:
    """Run a traced free-running session and extract the latency profile.

    Parameters
    ----------
    scenario:
        Workload and calibration.
    replication:
        Hazard/interp replica count (defaults to the scenario's factor).
    n_options:
        Session length (defaults to the scenario batch size).
    """
    k = replication if replication is not None else scenario.replication_factor
    n = n_options if n_options is not None else scenario.n_options
    wl = EngineWorkload.build(
        scenario.options(n), scenario.yield_curve(), scenario.hazard_curve()
    )
    models = StageModels.for_scenario(scenario, interleaved=True)
    sim = Simulator("latency_session")
    trace = Trace(recorder=NULL_RECORDER)
    sim.tracer = trace
    build_dataflow_network(
        sim,
        wl,
        list(range(n)),
        models,
        stream_depth=scenario.stream_depth,
        replication=k,
        uram_ports=scenario.effective_uram_ports,
    )
    sim.run()

    completions = np.array(
        [
            e.time
            for e in trace.events
            if e.kind == "read" and e.stream == "combine->drain"
        ]
    )
    if completions.size != n:
        raise ValidationError(
            f"expected {n} completions, saw {completions.size}"
        )
    return LatencyProfile(
        completion_cycles=completions,
        inter_completion_cycles=np.diff(completions),
        first_result_cycles=float(completions[0]),
    )
