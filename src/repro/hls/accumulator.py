"""Accumulation-loop models: the heart of paper Listing 1.

A pipelined loop computing ``sum += values[i]`` carries its dependency
through the double-precision adder.  With a 7-cycle adder the next iteration
cannot start until the previous add retires, so the achieved initiation
interval is 7 — the loop produces one accumulated value every seven cycles
(paper Section III).

Listing 1 removes the dependency by interleaving: the accumulator is
replicated into ``lanes = 7`` independent partial sums updated cyclically;
the outer loop has II=7 but completes seven *independent* adds per
iteration, averaging one add per cycle.  A short tail loop reduces the seven
partials (and handles a length not divisible by seven, which the paper
omits from the listing "for brevity" but includes in the engine code — as do
we).

Both variants are provided as (a) a *functional* computation whose result
the tests compare against ``math.fsum``, and (b) a *timing* model in cycles
consumed by the dataflow engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.validation import check_count
from repro.errors import ValidationError
from repro.hls.ops import DADD_LATENCY
from repro.hls.pragmas import ArrayPartition, Pipeline, Unroll

__all__ = ["naive_accumulate", "interleaved_accumulate", "AccumulatorModel"]


def naive_accumulate(values: Sequence[float]) -> tuple[float, float]:
    """Sequential accumulation with a loop-carried dependency.

    Returns
    -------
    (total, cycles):
        ``total`` is the left-to-right sum; ``cycles`` models the pipelined
        loop at II=7: ``latency + (n - 1) * 7`` (0 cycles for an empty
        input).
    """
    arr = np.asarray(values, dtype=np.float64)
    total = 0.0
    for v in arr:
        total += float(v)
    n = arr.size
    cycles = 0.0 if n == 0 else float(DADD_LATENCY + (n - 1) * DADD_LATENCY)
    return total, cycles


def interleaved_accumulate(
    values: Sequence[float], lanes: int = DADD_LATENCY
) -> tuple[float, float]:
    """Listing-1 accumulation: ``lanes`` interleaved partial sums at II=1.

    The functional result sums element ``i`` into partial ``i % lanes`` and
    then reduces the partials left-to-right — the exact floating-point
    association of the hardware, which differs from the naive sum by
    rounding only (the property tests bound the difference against
    ``math.fsum``).

    Returns
    -------
    (total, cycles):
        ``cycles`` models the II=1 main loop over ``ceil(n / lanes)`` chunks
        (each chunk of ``lanes`` adds completes in ``lanes`` cycles, i.e.
        one add per cycle on average) plus the II=7 tail reduction over the
        ``lanes`` partials and the fill latency.
    """
    check_count(lanes, "lanes")
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    partials = [0.0] * lanes
    for i in range(n):
        partials[i % lanes] += float(arr[i])
    total = 0.0
    for p in partials:
        total += p
    if n == 0:
        return total, 0.0
    import math

    chunks = math.ceil(n / lanes)
    main = DADD_LATENCY + (chunks - 1) * lanes + (lanes - 1)
    tail = DADD_LATENCY * lanes
    return total, float(main + tail)


@dataclass(frozen=True)
class AccumulatorModel:
    """Timing-only accumulator descriptor used by the engine stages.

    Parameters
    ----------
    interleaved:
        ``False`` models the original Xilinx loop (II = adder latency),
        ``True`` models Listing 1 (II = 1 plus a fixed tail).
    lanes:
        Partial-sum count for the interleaved variant (paper uses 7, the
        adder latency, which is the minimum that breaks the dependency).
    add_latency:
        Adder pipeline latency in cycles: 7 for double precision (the
        paper's engines), 4 for the single-precision reduced-precision
        study.
    """

    interleaved: bool
    lanes: int = DADD_LATENCY
    add_latency: int = DADD_LATENCY

    def __post_init__(self) -> None:
        check_count(self.lanes, "lanes")
        check_count(self.add_latency, "add_latency")

    @property
    def ii(self) -> float:
        """Achieved initiation interval per element."""
        return 1.0 if self.interleaved else float(self.add_latency)

    def cycles(self, n: int) -> float:
        """Cycles to accumulate ``n`` elements (timing model only)."""
        if not n >= 0:  # once per timed option: inline
            raise ValidationError(f"n must be >= 0, got {n}")
        if n == 0:
            return 0.0
        if not self.interleaved:
            return float(self.add_latency + (n - 1) * self.add_latency)
        import math

        chunks = math.ceil(n / self.lanes)
        main = self.add_latency + (chunks - 1) * self.lanes + (self.lanes - 1)
        tail = self.add_latency * self.lanes
        return float(main + tail)

    def compute(self, values: Sequence[float]) -> tuple[float, float]:
        """Functional value plus cycles, dispatching on the variant."""
        if self.interleaved:
            return interleaved_accumulate(values, self.lanes)
        return naive_accumulate(values)

    def pragmas(self) -> list:
        """The HLS pragmas this variant corresponds to (for reports)."""
        if not self.interleaved:
            return [Pipeline(ii=self.add_latency)]
        return [
            Pipeline(ii=self.lanes),
            Unroll(),
            ArrayPartition(variable="values", kind="complete"),
        ]

    def describe(self) -> str:
        """One-line description for reports."""
        if self.interleaved:
            return (
                f"Listing-1 interleaved accumulator ({self.lanes} partial sums, "
                f"achieved II=1 per element)"
            )
        return (
            f"naive accumulator (loop-carried add dependency, "
            f"II={self.add_latency})"
        )
