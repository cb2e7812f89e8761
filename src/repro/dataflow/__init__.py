"""Cycle-level discrete-event simulator for HLS-style dataflow designs.

This package is the software substitute for the Vitis HLS + Alveo U280
execution substrate of the paper.  It models the execution semantics that the
paper's optimisations manipulate:

* **bounded streams** (:mod:`~repro.dataflow.stream`) — HLS ``hls::stream``
  FIFOs with blocking read/write and back-pressure;
* **processes** (:mod:`~repro.dataflow.process`) — concurrently-running
  dataflow functions, written as Python generators that yield
  :class:`~repro.dataflow.process.Read` / :class:`~repro.dataflow.process.Write`
  / :class:`~repro.dataflow.process.Delay` commands;
* **the scheduler** (:mod:`~repro.dataflow.engine`) — a
  Kahn-process-network simulator with per-process cycle clocks and a fixed
  FIFO ready queue; token timestamps propagate via ``max`` constraints, a
  full stream's writer is released once by the next pop (release-once
  back-pressure), and cycle counts are deterministic for that queue order;
* **analysis** (:mod:`~repro.dataflow.graph`, :mod:`~repro.dataflow.stats`,
  :mod:`~repro.dataflow.tracing`) — topology export (paper Figs. 1-3),
  stall statistics and event traces.

The simulator is *cycle-level*, not RTL-accurate: each stage's arithmetic is
computed functionally (ordinary Python/NumPy), while its timing follows the
II/latency/occupancy rules of HLS.  That is exactly the level at which the
paper reasons about its optimisations (II=7 accumulations, fill/drain,
round-robin replication), so the performance *shape* is preserved while
results stay numerically checkable.
"""

from repro.dataflow.stream import Stream, StreamStats
from repro.dataflow.process import Delay, Process, ProcessState, Read, Write
from repro.dataflow.engine import SimulationResult, Simulator
from repro.dataflow.graph import DataflowGraph

__all__ = [
    "Stream",
    "StreamStats",
    "Process",
    "ProcessState",
    "Read",
    "Write",
    "Delay",
    "Simulator",
    "SimulationResult",
    "DataflowGraph",
]
