"""Calibrated Xeon performance model.

Two layers:

* :class:`CPUWorkEstimate` counts the elementary operations a scalar C++
  implementation of the engine performs per option — the same accumulation
  and interpolation walks the FPGA stages perform, executed sequentially on
  one core.  The serial hazard accumulation is charged at the *latency* of a
  dependent FP add chain (the CPU equivalent of the FPGA's II=7 bottleneck:
  out-of-order execution cannot reorder a true dependency either).

* :class:`CPUPerformanceModel` converts operation counts into options/second
  with a single calibrated ``calibration_factor`` covering what the count
  abstracts away (cache misses on the 16 KiB rate tables, libm call
  overhead, loop control) and applies a memory-contention strong-scaling law
  for multi-core runs:

  ``rate(p) = rate(1) * p / (1 + contention * (p - 1))``

  The paper observes "the CPU code is scaling fairly poorly, where we have
  increased the core count by 24 times but the performance only increases by
  around nine times" (Section IV); ``contention = 0.0768`` reproduces that
  9x figure at 24 cores.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.schedule import build_schedule
from repro.core.types import CDSOption
from repro.core.validation import (
    check_count,
    check_non_negative_finite,
    check_positive_finite,
    check_range,
)
from repro.cpu.xeon import XEON_8260M, CPUDescriptor
from repro.hls.ops import DADD_LATENCY

__all__ = ["CPUWorkEstimate", "CPUPerformanceModel"]

#: Approximate cycles per scanned interpolation-table entry on the CPU
#: (compare + select + address arithmetic on a branchy scalar loop).
INTERP_CYCLES_PER_ENTRY = 3.0

#: Approximate cycles per libm double-precision ``exp`` call.
EXP_CYCLES = 150.0

#: Fixed per-option overhead (schedule generation, function calls, result
#: store) in cycles.
PER_OPTION_OVERHEAD_CYCLES = 2_000.0


@dataclass(frozen=True)
class CPUWorkEstimate:
    """Elementary-operation counts for pricing one option.

    Attributes
    ----------
    hazard_adds:
        Dependent accumulation steps over the hazard table (summed over all
        time points, each recomputed from the table start as the reference
        implementation does).
    interp_entries:
        Interpolation-table entries scanned (one full-table scan per time
        point in the bespoke engine, matching the FPGA's fixed-bound loop).
    exp_calls:
        ``exp`` evaluations (survival + discount per time point).
    time_points:
        Schedule length.
    """

    hazard_adds: int
    interp_entries: int
    exp_calls: int
    time_points: int

    def mechanistic_cycles(self) -> float:
        """Cycle count implied by the per-operation costs (pre-calibration)."""
        return (
            self.hazard_adds * DADD_LATENCY
            + self.interp_entries * INTERP_CYCLES_PER_ENTRY
            + self.exp_calls * EXP_CYCLES
            + PER_OPTION_OVERHEAD_CYCLES
        )

    @classmethod
    def for_option(
        cls,
        option: CDSOption,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
    ) -> "CPUWorkEstimate":
        """Count the work of one option against the given curves."""
        schedule = build_schedule(option)
        hazard_adds = sum(
            hazard_curve.accumulation_length(float(t)) for t in schedule.times
        )
        interp_entries = len(yield_curve) * len(schedule)
        exp_calls = 2 * len(schedule)
        return cls(
            hazard_adds=hazard_adds,
            interp_entries=interp_entries,
            exp_calls=exp_calls,
            time_points=len(schedule),
        )


@dataclass(frozen=True)
class CPUPerformanceModel:
    """Options/second model for a CPU socket.

    Parameters
    ----------
    cpu:
        Machine descriptor (clock, core count).
    calibration_factor:
        Multiplier on the mechanistic cycle count absorbing cache, libm and
        loop-control effects; calibrated once against the paper's
        single-core measurement (8738.92 options/s) for the paper scenario.
    contention:
        Strong-scaling contention coefficient; 0.0768 reproduces the
        paper's ~8.7x speedup at 24 cores.
    """

    cpu: CPUDescriptor = XEON_8260M
    calibration_factor: float = 2.565
    contention: float = 0.0768

    def __post_init__(self) -> None:
        check_positive_finite(self.calibration_factor, "calibration_factor")
        check_non_negative_finite(self.contention, "contention")

    def cycles_per_option(self, work: CPUWorkEstimate) -> float:
        """Calibrated cycles to price one option on one core."""
        return work.mechanistic_cycles() * self.calibration_factor

    def single_core_rate(self, work: CPUWorkEstimate) -> float:
        """Options/second on one core."""
        return self.cpu.base_clock_hz / self.cycles_per_option(work)

    def rate(self, work: CPUWorkEstimate, cores: int) -> float:
        """Options/second on ``cores`` cores under the contention law."""
        check_range(cores, "cores", f"[1, {self.cpu.cores}]")
        r1 = self.single_core_rate(work)
        return r1 * cores / (1.0 + self.contention * (cores - 1))

    def speedup(self, cores: int) -> float:
        """Strong-scaling speedup at ``cores`` (independent of workload)."""
        check_count(cores, "cores")
        return cores / (1.0 + self.contention * (cores - 1))

    def parallel_efficiency(self, cores: int) -> float:
        """Speedup divided by core count."""
        return self.speedup(cores) / cores
