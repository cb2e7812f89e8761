"""Dataflow processes and the command protocol they speak.

A *process* models one concurrently-executing HLS dataflow function (a black
box of paper Fig. 2).  Kernels are written as Python generators that yield
command objects to the scheduler:

* ``value = yield Read(stream)`` — blocking FIFO read;
* ``yield Write(stream, value, delay=L)`` — blocking FIFO write whose token
  becomes visible ``L`` cycles after the write issues (models pipeline
  latency without stalling the writer);
* ``yield Delay(cycles)`` — advance the process clock (models compute
  occupancy: an II=7 accumulation of ``n`` values is ``Delay(7 * n)``).

Example
-------
A doubling stage with II=1 and 3-cycle latency::

    def doubler(inp, out, n):
        for _ in range(n):
            v = yield Read(inp)
            yield Write(out, 2 * v, delay=3)
            yield Delay(1)

The scheduler (:mod:`repro.dataflow.engine`) advances each process's local
cycle clock.  The cross-process constraints are ``max`` of timestamps, and
back-pressure releases a blocked writer once, at the first pop (the rules
are stated there).  Values do not depend on the schedule (Kahn process
network semantics); cycle counts are deterministic for the scheduler's
fixed ready-queue order.
"""

from __future__ import annotations

import enum
from typing import Any, Generator

from repro.dataflow.stream import Stream
from repro.errors import SimulationError

__all__ = ["Read", "Write", "Delay", "Process", "ProcessState", "Kernel"]

#: Type alias for kernel generators.
Kernel = Generator["Read | Write | Delay", Any, None]


class Read:
    """Command: blocking read of one token from ``stream``."""

    __slots__ = ("stream",)

    def __init__(self, stream: Stream) -> None:
        self.stream = stream

    def __repr__(self) -> str:  # pragma: no cover
        return f"Read({self.stream.name})"


class Write:
    """Command: blocking write of ``value`` to ``stream``.

    Parameters
    ----------
    stream:
        Target FIFO.
    value:
        Payload.
    delay:
        Pipeline latency in cycles between the write issuing and the token
        becoming readable downstream.  The writer's own clock does **not**
        advance by ``delay`` — that is the essence of pipelining.

    Notes
    -----
    ``issue_time`` is stamped by the scheduler when the write first
    executes.  If the FIFO is full, the value was still *computed* at issue
    time (it waits in the pipeline's output register), so when the slot
    frees at time ``T`` the token becomes readable at
    ``max(issue_time + delay, T)`` — not ``T + delay``.  Because of that
    stamp a kernel yields a fresh ``Write`` per token, whereas a
    :class:`Read` or :class:`Delay` carries no state and may be built
    once and yielded repeatedly.
    """

    __slots__ = ("stream", "value", "delay", "issue_time")

    def __init__(self, stream: Stream, value: Any, delay: float = 0.0) -> None:
        if delay < 0.0:
            raise SimulationError(f"Write delay must be >= 0, got {delay}")
        self.stream = stream
        self.value = value
        self.delay = delay
        self.issue_time: float | None = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"Write({self.stream.name}, delay={self.delay})"


class Delay:
    """Command: advance the process clock by ``cycles``."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: float) -> None:
        if cycles < 0.0:
            raise SimulationError(f"Delay must be >= 0, got {cycles}")
        self.cycles = cycles

    def __repr__(self) -> str:  # pragma: no cover
        return f"Delay({self.cycles})"


class ProcessState(enum.Enum):
    """Lifecycle of a process during simulation."""

    READY = "ready"
    BLOCKED_READ = "blocked-read"
    BLOCKED_WRITE = "blocked-write"
    DONE = "done"


class Process:
    """One concurrently-running dataflow function under simulation.

    Attributes
    ----------
    name:
        Unique name (appears in graphs, stats and deadlock diagnostics).
    time:
        Local cycle clock; monotonically non-decreasing.
    state:
        Current :class:`ProcessState`.
    busy_cycles:
        Total cycles spent in ``Delay`` (compute occupancy).
    stall_read_cycles / stall_write_cycles:
        Cycles spent blocked on empty inputs / full outputs.
    group:
        Optional label grouping replicas (used by the vectorised engine's
        round-robin clusters and the figure renderers).
    """

    __slots__ = (
        "name",
        "generator",
        "time",
        "state",
        "busy_cycles",
        "stall_read_cycles",
        "stall_write_cycles",
        "group",
        "pending",
        "block_since",
        "reads",
        "writes",
    )

    def __init__(self, name: str, generator: Kernel, group: str | None = None) -> None:
        self.name = name
        self.generator = generator
        self.group = group
        self.time: float = 0.0
        self.state = ProcessState.READY
        self.busy_cycles: float = 0.0
        self.stall_read_cycles: float = 0.0
        self.stall_write_cycles: float = 0.0
        #: Pending blocked command (Read or Write) awaiting a wakeup.
        self.pending: Read | Write | None = None
        self.block_since: float = 0.0
        #: Streams this process reads / writes (discovered during execution,
        #: pre-registered via Simulator.process(reads=..., writes=...)).
        self.reads: set[str] = set()
        self.writes: set[str] = set()

    @property
    def done(self) -> bool:
        """Whether the kernel generator has finished."""
        return self.state is ProcessState.DONE

    @property
    def total_stall_cycles(self) -> float:
        """Read plus write stall cycles."""
        return self.stall_read_cycles + self.stall_write_cycles

    def utilisation(self, makespan: float) -> float:
        """Fraction of the run this process spent computing.

        Parameters
        ----------
        makespan:
            Total simulated cycles of the run (from
            :class:`~repro.dataflow.engine.SimulationResult`).
        """
        if makespan <= 0.0:
            return 0.0
        return min(1.0, self.busy_cycles / makespan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Process({self.name!r}, t={self.time:.0f}, {self.state.value}, "
            f"busy={self.busy_cycles:.0f})"
        )
