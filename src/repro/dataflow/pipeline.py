"""Pipelined-loop timing (``#pragma HLS PIPELINE``).

HLS pipelines a loop so that a new iteration *initiates* every II cycles
(the initiation interval) while each iteration takes ``latency`` cycles to
flow through the pipeline.  A loop of ``n`` iterations therefore occupies

``cycles(n) = latency + (n - 1) * II``        (n >= 1)

The paper's core bottleneck is exactly an II phenomenon: the hazard
accumulation loop carries a dependency through a double-precision add whose
latency is seven cycles, forcing ``II = 7`` — one result every seven cycles
(Section III).  Listing 1 restores ``II = 1`` by interleaving seven partial
sums; the timing consequences of both variants are modelled in
:mod:`repro.hls.accumulator` on top of this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import (
    check_index,
    check_non_negative_finite,
    check_positive_finite,
)

__all__ = ["LoopTiming", "pipelined_loop_cycles", "nested_loop_cycles"]


@dataclass(frozen=True)
class LoopTiming:
    """Static timing descriptor of a pipelined loop.

    Parameters
    ----------
    ii:
        Initiation interval in cycles (>= 1 in real HLS; fractional values
        are allowed for modelling averaged behaviour).
    latency:
        Iteration latency in cycles (>= ii is typical but not required).
    """

    ii: float = 1.0
    latency: float = 1.0

    def __post_init__(self) -> None:
        check_positive_finite(self.ii, "ii")
        check_non_negative_finite(self.latency, "latency")

    def cycles(self, trip_count: int) -> float:
        """Total cycles to execute ``trip_count`` iterations."""
        return pipelined_loop_cycles(trip_count, self.ii, self.latency)

    def steady_state_cycles(self, trip_count: int) -> float:
        """Cycles excluding the one-off fill latency: ``trip_count * II``.

        This is the per-invocation cost once the pipeline is continuously
        fed — the quantity the paper's *inter-option* optimisation exposes
        by never draining the pipeline between options.
        """
        check_index(trip_count, "trip_count")
        return trip_count * self.ii

    def scaled(self, factor: float) -> "LoopTiming":
        """A copy with II scaled by ``factor`` (used for derating sweeps)."""
        return LoopTiming(ii=self.ii * factor, latency=self.latency)


def pipelined_loop_cycles(trip_count: int, ii: float, latency: float) -> float:
    """Cycles for a pipelined loop: ``latency + (n - 1) * II`` (0 for n=0)."""
    check_index(trip_count, "trip_count")
    if trip_count == 0:
        return 0.0
    check_positive_finite(ii, "ii")
    return latency + (trip_count - 1) * ii


def nested_loop_cycles(
    outer_trips: int, inner_trips: int, inner: LoopTiming, *, flattened: bool = False
) -> float:
    """Cycles for an outer loop wrapping a pipelined inner loop.

    Without flattening (HLS default for imperfect nests) the inner pipeline
    fills and drains once per outer iteration:

    ``outer_trips * (latency + (inner_trips - 1) * II)``

    With ``flattened=True`` (perfect nest) the pipeline fills once:

    ``latency + (outer_trips * inner_trips - 1) * II``
    """
    check_index(outer_trips, "outer_trips")
    if outer_trips == 0 or inner_trips == 0:
        return 0.0
    if flattened:
        return pipelined_loop_cycles(outer_trips * inner_trips, inner.ii, inner.latency)
    return outer_trips * inner.cycles(inner_trips)
