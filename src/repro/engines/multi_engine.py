"""Variant 5: scaling up the number of CDS engines (paper Section IV).

"We scaled up the number of CDS engines on the FPGA, being able to fit five
onto the Alveo U280.  There are no dependencies between calculations
involving different options, and as such we decomposed based upon the
options themselves, splitting the entire set up into N chunks ... All
engines require the full interest and hazard rate data, which is read in
upon initialisation of the engine and stored in UltraRAM."

Model: each engine instance runs the vectorised engine's free-running
network over its contiguous option chunk (independent discrete-event
simulations — the chunks share no data); the batch completes when the
slowest chunk finishes, stretched by a shared-interface contention factor
(all engines arbitrate for the same HBM/PCIe shell):

``makespan(n) = max_chunk_makespan * (1 + contention * (n - 1))``

:meth:`MultiEngineSystem.kernel_cycles` gives the same batch cycles from
the timing-only replay of each chunk's network, for callers that need
the cost of a batch and not its spreads.

Construction validates the floorplan: requesting more engines than fit
under the device's routable ceiling raises
:class:`~repro.errors.ResourceError` (six of the paper's engines do not fit
— that is why Table II stops at five).
"""

from __future__ import annotations

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.core.vector_pricing import VectorCDSPricer
from repro.cpu.engine import chunk_options
from repro.dataflow.engine import SimulationResult
from repro.engines.base import CDSEngineBase, EngineWorkload
from repro.engines.builder import engine_resources
from repro.engines.interoption import run_streaming, time_streaming
from repro.engines.xilinx_baseline import _sink_to_array
from repro.errors import ValidationError
from repro.fpga.floorplan import Floorplan
from repro.hls.resources import ResourceUsage

__all__ = ["MultiEngineSystem"]


class MultiEngineSystem(CDSEngineBase):
    """N vectorised engines with option-chunk decomposition (Table II).

    Parameters
    ----------
    scenario:
        Experimental configuration.
    n_engines:
        Engine instances to deploy; validated against the device floorplan
        at construction.
    """

    name = "multi_engine"

    def __init__(self, scenario=None, *, n_engines: int = 1) -> None:
        super().__init__(scenario)
        if n_engines < 1:
            raise ValidationError(f"n_engines must be >= 1, got {n_engines}")
        self._n_engines = n_engines
        # Validates the fit; raises ResourceError when the count is too
        # large for the device (e.g. 6 paper engines on the U280).
        self.floorplan = Floorplan(
            device=self.scenario.device,
            engine_resources=self.resources(),
            n_engines=n_engines,
        )
        self.name = f"multi_engine[{n_engines}]"

    @property
    def n_engines(self) -> int:
        """Deployed engine instances."""
        return self._n_engines

    def _execute(
        self, workload: EngineWorkload
    ) -> tuple[np.ndarray, float, int, list[SimulationResult]]:
        n = workload.n_options
        merged: dict[int, float] = {}
        sims: list[SimulationResult] = []
        for ei, chunk in enumerate(self._chunks(n)):
            sink, res = run_streaming(
                self.scenario,
                workload,
                chunk,
                replication=self.scenario.replication_factor,
                sim_name=f"engine[{ei}]",
            )
            merged.update(sink)
            sims.append(res)

        cycles = self._batch_cycles([res.makespan_cycles for res in sims])
        spreads = _sink_to_array(merged, n, self.name)
        return spreads, cycles, len(sims), sims

    def kernel_cycles(
        self,
        options: list[CDSOption],
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
    ) -> float:
        """``run(options, yield_curve, hazard_curve).kernel_cycles``, exactly,
        without the discrete-event run.

        Each engine chunk's makespan comes from the timing-only replay
        of its network (:func:`~repro.engines.interoption.
        time_streaming`); chunking, contention and invocation overhead
        are :meth:`run`'s.  The rejections stay :meth:`run`'s too: the
        workload is built the same way, and the batch is priced once by
        the vectorised kernel, which rejects a non-positive risky
        annuity as the simulated combine stage does.
        """
        workload = EngineWorkload.build(options, yield_curve, hazard_curve)
        # Priced only for its rejections; the spreads are not needed.
        VectorCDSPricer(yield_curve, hazard_curve).spreads(options)
        return self._batch_cycles(
            [
                time_streaming(
                    self.scenario,
                    workload,
                    chunk,
                    replication=self.scenario.replication_factor,
                ).makespan_cycles
                for chunk in self._chunks(workload.n_options)
            ]
        )

    def _chunks(self, n_options: int) -> list[list[int]]:
        """Contiguous option-index chunks, one per active engine."""
        return chunk_options(list(range(n_options)), self._n_engines)

    def _batch_cycles(self, makespans: list[float]) -> float:
        """Batch cycles from the chunks' makespans: the slowest chunk,
        stretched by shared-interface contention, plus the invocation
        overhead."""
        sc = self.scenario
        contention = 1.0 + sc.multi_engine_contention * (len(makespans) - 1)
        return max(makespans) * contention + sc.invocation_overhead_cycles

    def resources(self) -> ResourceUsage:
        """One engine instance (the base class scales by ``n_engines``)."""
        return engine_resources(
            self.scenario,
            replication=self.scenario.replication_factor,
            interleaved=True,
        )

    def power_watts(self) -> float:
        """Card power for this configuration (Table II column 3)."""
        return self.scenario.fpga_power.watts(self._n_engines)
