"""Shared-interconnect co-simulation for multi-engine deployments.

The multi-engine system applies a calibrated contention coefficient
(``PaperScenario.multi_engine_contention``) to reproduce Table II's
sub-linear five-engine scaling.  This module asks the mechanistic question
behind that constant: *how much of the slowdown can the on-card shared DMA
path actually produce?*

It co-simulates the option/result DMA traffic of ``n`` engines through one
shared AXI/HBM arbiter: each engine issues one descriptor per option at its
natural processing cadence; the arbiter serves round-robin with a fixed
per-descriptor service time.  If the arbiter saturates, engines queue and
the traffic makespan stretches beyond the compute makespan.

The finding (see ``benchmarks/test_ablation_interconnect.py``): at the
paper's operating point the DMA path is a few-percent effect at most — the
calibrated coefficient therefore mostly reflects host-side serialisation
(driver queues, XRT scheduling), which the paper's testbed would exhibit
but a card-only model cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_count, check_positive_finite
from repro.dataflow.engine import Simulator
from repro.dataflow.process import Delay, Kernel, Read, Write
from repro.dataflow.stream import Stream
from repro.workloads.scenarios import PaperScenario

__all__ = ["DMATrafficModel", "TrafficReport", "cosim_dma_traffic"]


@dataclass(frozen=True)
class DMATrafficModel:
    """Timing of one DMA descriptor through the shared arbiter.

    Parameters
    ----------
    service_cycles:
        Arbiter occupancy per descriptor: AXI address phase, HBM access
        latency amortised over outstanding transactions, and the data beats
        of one option record plus one result (both under 64 bytes, i.e. one
        512-bit beat each).
    """

    service_cycles: float = 140.0

    def __post_init__(self) -> None:
        check_positive_finite(self.service_cycles, "service_cycles")


@dataclass(frozen=True)
class TrafficReport:
    """Outcome of a DMA co-simulation.

    Attributes
    ----------
    n_engines:
        Engines sharing the arbiter.
    compute_cycles:
        Per-engine compute makespan (requests are issued at this cadence).
    traffic_cycles:
        Completion time of the full DMA token network.
    arbiter_busy_cycles:
        Cycles the arbiter spent serving descriptors.
    """

    n_engines: int
    compute_cycles: float
    traffic_cycles: float
    arbiter_busy_cycles: float

    @property
    def slowdown(self) -> float:
        """Traffic-induced stretch over the compute-only makespan."""
        if self.compute_cycles <= 0:
            return 1.0
        return max(1.0, self.traffic_cycles / self.compute_cycles)

    @property
    def arbiter_utilisation(self) -> float:
        """Busy fraction of the shared arbiter."""
        if self.traffic_cycles <= 0:
            return 0.0
        return min(1.0, self.arbiter_busy_cycles / self.traffic_cycles)


def _traffic_gen(
    req: Stream, n_requests: int, cadence: float
) -> Kernel:
    """One engine's DMA client: a descriptor per option at its cadence."""
    for i in range(n_requests):
        yield Write(req, i)
        yield Delay(cadence)


def _arbiter(
    reqs: tuple[Stream, ...],
    rsps: tuple[Stream, ...],
    counts: list[int],
    service: float,
) -> Kernel:
    """Round-robin arbiter over per-engine request queues.

    Serves engines cyclically, skipping exhausted ones; each grant occupies
    the arbiter for ``service`` cycles.  (A blocking round-robin over
    non-exhausted queues is exactly how a work-conserving AXI interconnect
    with per-master FIFOs behaves under saturation; under light load it
    waits on the next master in turn, which is conservative.)
    """
    remaining = list(counts)
    while any(r > 0 for r in remaining):
        for e, req in enumerate(reqs):
            if remaining[e] <= 0:
                continue
            token = yield Read(req)
            yield Delay(service)
            yield Write(rsps[e], token)
            remaining[e] -= 1


def _completion(rsp: Stream, n: int) -> Kernel:
    """Drain one engine's responses."""
    for _ in range(n):
        yield Read(rsp)


def cosim_dma_traffic(
    scenario: PaperScenario,
    n_engines: int,
    *,
    compute_cycles_per_option: float,
    options_per_engine: int,
    model: DMATrafficModel | None = None,
) -> TrafficReport:
    """Co-simulate ``n_engines`` worth of DMA descriptors through one arbiter.

    Parameters
    ----------
    scenario:
        Provides stream-depth defaults.
    n_engines:
        Engines sharing the interconnect.
    compute_cycles_per_option:
        Each engine's natural per-option cadence (its bottleneck stage
        cost) — descriptors are issued at this rate.
    options_per_engine:
        Chunk size per engine.
    model:
        Arbiter timing (defaults to :class:`DMATrafficModel`).
    """
    check_count(n_engines, "n_engines")
    check_count(options_per_engine, "options_per_engine")
    check_positive_finite(compute_cycles_per_option, "compute_cycles_per_option")
    m = model if model is not None else DMATrafficModel()

    sim = Simulator(f"dma_cosim[{n_engines}]")
    reqs = tuple(
        sim.stream(f"req[{e}]", depth=scenario.stream_depth)
        for e in range(n_engines)
    )
    rsps = tuple(
        sim.stream(f"rsp[{e}]", depth=scenario.stream_depth)
        for e in range(n_engines)
    )
    counts = [options_per_engine] * n_engines
    for e in range(n_engines):
        sim.process(
            f"traffic[{e}]",
            _traffic_gen(reqs[e], options_per_engine, compute_cycles_per_option),
        )
        sim.process(f"complete[{e}]", _completion(rsps[e], options_per_engine))
    sim.process("arbiter", _arbiter(reqs, rsps, counts, m.service_cycles))
    result = sim.run()

    compute = options_per_engine * compute_cycles_per_option
    return TrafficReport(
        n_engines=n_engines,
        compute_cycles=compute,
        traffic_cycles=result.makespan_cycles,
        arbiter_busy_cycles=result.process_busy["arbiter"],
    )
