"""A runnable CPU CDS engine.

This is the live counterpart of the paper's bespoke C++/OpenMP CPU engine:
it prices real option batches on the host machine using the vectorised
pricer, optionally decomposing the batch across worker processes the same
way the FPGA multi-engine decomposes across kernels (contiguous chunks of
the option vector).

Measurements from this engine are *host measurements* — they characterise
whatever machine runs the benchmark, not the paper's Xeon 8260M.  The
paper-comparison tables use the calibrated model in
:mod:`repro.cpu.scaling`; this engine exists to verify numerics end-to-end
and to give users a genuine baseline on their own hardware.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.core.validation import check_count
from repro.core.vector_pricing import VectorCDSPricer
from repro.errors import ValidationError

__all__ = ["CPUEngine", "CPUEngineResult", "chunk_options"]


def chunk_options(options: list[CDSOption], n_chunks: int) -> list[list[CDSOption]]:
    """Split a batch into ``n_chunks`` contiguous near-equal chunks.

    The same decomposition the paper uses across FPGA engines: "we
    decomposed based upon the options themselves, splitting the entire set
    up into N chunks" (Section IV).  Chunks differ in size by at most one.
    """
    check_count(n_chunks, "n_chunks")
    if not options:
        raise ValidationError("cannot chunk an empty option batch")
    n = len(options)
    base, extra = divmod(n, n_chunks)
    chunks: list[list[CDSOption]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(options[start : start + size])
        start += size
    return [c for c in chunks if c]


@dataclass(frozen=True)
class CPUEngineResult:
    """Outcome of one CPU engine run.

    Attributes
    ----------
    spreads_bps:
        Par spreads, in input order.
    elapsed_seconds:
        Wall-clock time of the pricing phase.
    options_per_second:
        Throughput implied by the run.
    workers:
        Worker processes used (1 = in-process).
    """

    spreads_bps: np.ndarray
    elapsed_seconds: float
    options_per_second: float
    workers: int


def _price_chunk(
    payload: tuple[
        list[tuple[float, int, float]],
        tuple[tuple[float, ...], tuple[float, ...]],
        tuple[tuple[float, ...], tuple[float, ...]],
    ],
) -> list[float]:
    """Worker entry point (must be picklable at module top level)."""
    raw_options, (yt, yv), (ht, hv) = payload
    options = [CDSOption(m, f, r) for (m, f, r) in raw_options]
    pricer = VectorCDSPricer(
        yield_curve=YieldCurve(list(yt), list(yv)),
        hazard_curve=HazardCurve(list(ht), list(hv)),
    )
    return [float(s) for s in pricer.spreads(options)]


class CPUEngine:
    """Host CDS engine with optional process parallelism.

    Parameters
    ----------
    yield_curve / hazard_curve:
        The constant rate data shared by all options.
    workers:
        Worker processes; 1 runs in-process (no pool overhead).
    """

    def __init__(
        self,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        workers: int = 1,
    ) -> None:
        check_count(workers, "workers")
        self.yield_curve = yield_curve
        self.hazard_curve = hazard_curve
        self.workers = workers
        self._pricer = VectorCDSPricer(
            yield_curve=yield_curve, hazard_curve=hazard_curve
        )

    def run(self, options: list[CDSOption]) -> CPUEngineResult:
        """Price ``options``, timing the pricing phase."""
        if not options:
            raise ValidationError("option batch must be non-empty")
        start = time.perf_counter()
        if self.workers == 1:
            spreads = self._pricer.spreads(options)
        else:
            spreads = self._run_parallel(options)
        elapsed = time.perf_counter() - start
        elapsed = max(elapsed, 1e-9)
        return CPUEngineResult(
            spreads_bps=np.asarray(spreads, dtype=np.float64),
            elapsed_seconds=elapsed,
            options_per_second=len(options) / elapsed,
            workers=self.workers,
        )

    # ------------------------------------------------------------------
    def _run_parallel(self, options: list[CDSOption]) -> np.ndarray:
        chunks = chunk_options(options, self.workers)
        yt = tuple(float(t) for t in self.yield_curve.times)
        yv = tuple(float(v) for v in self.yield_curve.values)
        ht = tuple(float(t) for t in self.hazard_curve.times)
        hv = tuple(float(v) for v in self.hazard_curve.values)
        payloads = [
            (
                [(o.maturity, o.frequency, o.recovery_rate) for o in chunk],
                (yt, yv),
                (ht, hv),
            )
            for chunk in chunks
        ]
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            parts = list(pool.map(_price_chunk, payloads))
        flat: list[float] = []
        for part in parts:
            flat.extend(part)
        return np.asarray(flat, dtype=np.float64)
