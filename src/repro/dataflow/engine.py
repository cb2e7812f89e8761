"""The dataflow simulator scheduler.

Semantics
---------
The simulator executes a set of :class:`~repro.dataflow.process.Process`
kernels connected by bounded SPSC :class:`~repro.dataflow.stream.Stream`
FIFOs.  Every process carries its own cycle clock.  The scheduler is a
FIFO ready queue seeded in process order, and each process runs until it
blocks or finishes.  The cross-process constraints are ``max`` operations
over timestamps:

* a read of token *k* waits for the token, then sets the reader's clock to
  ``max(reader clock, token ready)``;
* a write stamps its issue time on its first attempt, and its token is
  ready at ``max(issue time + pipeline latency, writer clock)``;
* a write to a full stream blocks the writer.  The first pop from that
  stream releases it, once, and sets its clock to ``max(writer clock,
  reader clock)``; the writer then refills every slot freed since without
  waiting for the pops that freed them.

Back-pressure is therefore *release-once*, not per token: a write does not
wait for the pop ``depth`` tokens before it.  Six tokens written at II 1
into a depth-2 stream drained at II 10 finish the writer at cycle 22 with
16 cycles of write stall; per-token back-pressure would finish it at 31.

Token values follow Kahn process network semantics and do not depend on
the schedule.  Cycle counts are deterministic for the fixed ready-queue
order above; they are not claimed independent of it.  A ready queue
rather than a global time wheel keeps the hot loop small.
:func:`repro.engines.builder.time_dataflow_network` replays these rules
without values for the CDS engine network, and must match this module
exactly.

Deadlock (all processes blocked, none runnable, not all finished) raises
:class:`~repro.errors.DeadlockError` with a diagnostic listing every blocked
process and the stream it waits on — the software analogue of a hung HLS
DATAFLOW region.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.dataflow.process import Delay, Kernel, Process, ProcessState, Read, Write
from repro.dataflow.stream import Stream, StreamStats
from repro.errors import DeadlockError, SimulationError

__all__ = ["Simulator", "SimulationResult", "feeder", "collector"]

#: Hard command-count guard against runaway kernels.
DEFAULT_MAX_COMMANDS = 200_000_000

_READY = ProcessState.READY
_BLOCKED_READ = ProcessState.BLOCKED_READ
_BLOCKED_WRITE = ProcessState.BLOCKED_WRITE
_DONE = ProcessState.DONE


@dataclass
class SimulationResult:
    """Outcome of one :meth:`Simulator.run`.

    Attributes
    ----------
    makespan_cycles:
        Completion time of the slowest process (cycles).
    commands:
        Number of kernel commands executed (size proxy for the run).
    process_times:
        Finish time per process name.
    process_busy:
        ``Delay`` cycles per process name (compute occupancy).
    process_stall_read / process_stall_write:
        Stall cycles per process name.
    stream_stats:
        Final :class:`~repro.dataflow.stream.StreamStats` per stream name.
    """

    makespan_cycles: float
    commands: int
    process_times: dict[str, float] = field(default_factory=dict)
    process_busy: dict[str, float] = field(default_factory=dict)
    process_stall_read: dict[str, float] = field(default_factory=dict)
    process_stall_write: dict[str, float] = field(default_factory=dict)
    stream_stats: dict[str, StreamStats] = field(default_factory=dict)

    def seconds(self, clock_hz: float) -> float:
        """Wall-clock seconds of the simulated run at ``clock_hz``."""
        if clock_hz <= 0:
            raise SimulationError(f"clock_hz must be > 0, got {clock_hz}")
        return self.makespan_cycles / clock_hz

    def throughput(self, items: int, clock_hz: float) -> float:
        """Items per second processed by the simulated design."""
        secs = self.seconds(clock_hz)
        if secs == 0.0:
            raise SimulationError("zero-makespan run has undefined throughput")
        return items / secs

    def bottleneck(self) -> str:
        """Name of the process with the most busy cycles."""
        if not self.process_busy:
            raise SimulationError("no processes in result")
        return max(self.process_busy, key=lambda k: self.process_busy[k])

    def total_stall_cycles(self) -> float:
        """Sum of all stall cycles across processes."""
        return sum(self.process_stall_read.values()) + sum(
            self.process_stall_write.values()
        )


class Simulator:
    """Builds and runs one dataflow network.

    Typical usage::

        sim = Simulator("engine")
        a2b = sim.stream("a2b", depth=4)
        sim.process("producer", feeder(a2b, values))
        sim.process("consumer", collector(a2b, len(values), sink))
        result = sim.run()

    A fresh :class:`Simulator` corresponds to one configuration of the FPGA
    fabric; invoking :meth:`run` repeatedly on the *same* simulator is not
    supported (build a new one per invocation, as the per-option restart of
    :class:`~repro.engines.dataflow_engine.OptimisedDataflowEngine` does).
    """

    def __init__(self, name: str = "sim") -> None:
        self.name = name
        self.streams: dict[str, Stream] = {}
        self.processes: dict[str, Process] = {}
        self._ran = False
        #: Optional tracer with a ``record(kind, time, process, stream)``
        #: method (see :mod:`repro.dataflow.tracing`).
        self.tracer: Any | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def stream(
        self, name: str, depth: int = 2, *, per_option: bool = False
    ) -> Stream:
        """Create and register a stream; names must be unique."""
        if name in self.streams:
            raise SimulationError(f"duplicate stream name {name!r}")
        s = Stream(name=name, depth=depth, per_option=per_option)
        self.streams[name] = s
        return s

    def process(
        self,
        name: str,
        kernel: Kernel,
        *,
        group: str | None = None,
        reads: tuple[Stream, ...] = (),
        writes: tuple[Stream, ...] = (),
    ) -> Process:
        """Create and register a process running ``kernel``.

        ``reads`` / ``writes`` pre-declare stream connections so the
        topology graph is complete even before execution discovers them;
        they also enforce the SPSC property eagerly.
        """
        if name in self.processes:
            raise SimulationError(f"duplicate process name {name!r}")
        p = Process(name=name, generator=kernel, group=group)
        for s in reads:
            s.bind_reader(p)
            p.reads.add(s.name)
        for s in writes:
            s.bind_writer(p)
            p.writes.add(s.name)
        self.processes[name] = p
        return p

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_commands: int = DEFAULT_MAX_COMMANDS) -> SimulationResult:
        """Execute the network to completion and return statistics."""
        if self._ran:
            raise SimulationError(
                f"simulator {self.name!r} has already run; build a fresh one"
            )
        self._ran = True
        ready: deque[Process] = deque(self.processes.values())
        commands = 0
        trace = self.tracer

        while ready:
            p = ready.popleft()
            if p.state is _DONE:
                continue
            p.state = _READY
            commands += self._step(p, ready, trace, max_commands - commands)

        unfinished = [p for p in self.processes.values() if not p.done]
        if unfinished:
            detail = "; ".join(
                f"{p.name} {p.state.value} on "
                f"{p.pending.stream.name if p.pending is not None else '?'}"
                for p in unfinished
            )
            raise DeadlockError(
                f"dataflow network {self.name!r} deadlocked with "
                f"{len(unfinished)} blocked process(es): {detail}"
            )

        makespan = max((p.time for p in self.processes.values()), default=0.0)
        return SimulationResult(
            makespan_cycles=makespan,
            commands=commands,
            process_times={p.name: p.time for p in self.processes.values()},
            process_busy={p.name: p.busy_cycles for p in self.processes.values()},
            process_stall_read={
                p.name: p.stall_read_cycles for p in self.processes.values()
            },
            process_stall_write={
                p.name: p.stall_write_cycles for p in self.processes.values()
            },
            stream_stats={s.name: s.stats for s in self.streams.values()},
        )

    # ------------------------------------------------------------------
    def _step(
        self, p: Process, ready: deque[Process], trace: Any, budget: int
    ) -> int:
        """Run ``p`` until it blocks or finishes; returns commands executed.

        The hot loop works on each stream's FIFO deque and depth directly
        instead of through :class:`~repro.dataflow.stream.Stream`'s
        checked ``push``/``pop`` (it has just made the checks those
        methods repeat), and a stream already owned by ``p`` passes the
        SPSC check with one identity test.
        """
        gen = p.generator
        executed = 0
        value = None  # what the kernel receives from its next ``yield``
        while True:
            # Either retry the command we blocked on, or fetch the next one.
            if p.pending is not None:
                cmd = p.pending
                p.pending = None
            else:
                try:
                    cmd = gen.send(value)
                except StopIteration:
                    p.state = _DONE
                    return executed
                value = None
                executed += 1
                if executed > budget:
                    raise SimulationError(
                        f"command budget exceeded in {self.name!r}; "
                        "likely a non-terminating kernel"
                    )

            kind = type(cmd)
            if kind is Delay:
                p.time += cmd.cycles
                p.busy_cycles += cmd.cycles
                continue

            if kind is Read:
                s = cmd.stream
                if s.reader is not p:
                    if s.reader is not None:
                        raise SimulationError(
                            f"{p.name!r} read from {s.name!r} owned by "
                            f"{s.reader.name!r}"
                        )
                    s.bind_reader(p)
                    p.reads.add(s.name)
                fifo = s._fifo
                if not fifo:
                    p.pending = cmd
                    p.state = _BLOCKED_READ
                    p.block_since = p.time
                    return executed
                ready_time, value = fifo.popleft()
                if ready_time > p.time:
                    wait = ready_time - p.time
                    p.stall_read_cycles += wait
                    s.stats.reader_stall_cycles += wait
                    p.time = ready_time
                if trace is not None:
                    trace.record("read", p.time, p.name, s.name)
                # Popping freed a slot: release a back-pressured writer.
                w = s.writer
                if (
                    w is not None
                    and w.state is _BLOCKED_WRITE
                    and w.pending.stream is s
                ):
                    stall = max(0.0, p.time - w.block_since)
                    w.stall_write_cycles += stall
                    s.stats.writer_stall_cycles += stall
                    w.time = max(w.time, p.time)
                    w.state = _READY
                    ready.append(w)
                continue

            if kind is Write:
                s = cmd.stream
                if s.writer is not p:
                    if s.writer is not None:
                        raise SimulationError(
                            f"{p.name!r} wrote to {s.name!r} owned by "
                            f"{s.writer.name!r}"
                        )
                    s.bind_writer(p)
                    p.writes.add(s.name)
                if cmd.issue_time is None:
                    cmd.issue_time = p.time
                fifo = s._fifo
                if len(fifo) >= s.depth:
                    p.pending = cmd
                    p.state = _BLOCKED_WRITE
                    p.block_since = p.time
                    return executed
                # The value was computed at issue time even if the FIFO was
                # full in between (it waited in the pipeline output
                # register), so readiness is issue + latency or the moment
                # the slot freed, whichever is later.
                fifo.append((max(cmd.issue_time + cmd.delay, p.time), cmd.value))
                stats = s.stats
                stats.tokens += 1
                if len(fifo) > stats.max_occupancy:
                    stats.max_occupancy = len(fifo)
                if trace is not None:
                    trace.record("write", p.time, p.name, s.name)
                # A token arrived: release a starved reader.
                r = s.reader
                if (
                    r is not None
                    and r.state is _BLOCKED_READ
                    and r.pending.stream is s
                ):
                    r.state = _READY
                    ready.append(r)
                continue

            raise SimulationError(
                f"kernel {p.name!r} yielded unknown command {cmd!r}"
            )


# ----------------------------------------------------------------------
# Stock kernels
# ----------------------------------------------------------------------
def feeder(
    stream: Stream,
    values: list[Any],
    *,
    ii: float = 1.0,
    latency: float = 0.0,
) -> Kernel:
    """Kernel: write ``values`` to ``stream`` one per ``ii`` cycles.

    Models an input DMA / loader stage.
    """
    step = Delay(ii)
    for v in values:
        yield Write(stream, v, delay=latency)
        yield step


def collector(
    stream: Stream,
    count: int,
    sink: list[Any],
    *,
    ii: float = 1.0,
) -> Kernel:
    """Kernel: read ``count`` tokens from ``stream`` into ``sink``.

    Models an output DMA / result-drain stage.
    """
    read, step = Read(stream), Delay(ii)
    for _ in range(count):
        v = yield read
        sink.append(v)
        yield step


def transformer(
    inp: Stream,
    out: Stream,
    count: int,
    fn: Callable[[Any], Any],
    *,
    ii: float = 1.0,
    latency: float = 0.0,
) -> Kernel:
    """Kernel: ``out[k] = fn(inp[k])`` with the given II and latency."""
    read, step = Read(inp), Delay(ii)
    for _ in range(count):
        v = yield read
        yield Write(out, fn(v), delay=latency)
        yield step
