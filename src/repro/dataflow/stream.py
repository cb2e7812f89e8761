"""Bounded single-producer single-consumer streams (``hls::stream`` model).

An HLS stream is a hardware FIFO: a write blocks when the FIFO is full, a
read blocks when it is empty.  Stream *depth* is a synthesis knob — the paper
connects its dataflow functions with such streams (red/blue arrows of
Fig. 2), and back-pressure through them is what makes a slow stage stall its
neighbours ("stalls frequently occurred", Section III).

Tokens carry a *ready timestamp*: the cycle at which the producing stage's
pipeline emits them.  A reader that pops a token earlier than its ready time
advances its local clock to the ready time and records the difference as a
read stall.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.dataflow.process import Process

__all__ = ["Stream", "StreamStats", "DEFAULT_STREAM_DEPTH"]

#: Vitis HLS default stream depth (two-entry handshake FIFO).
DEFAULT_STREAM_DEPTH = 2


@dataclass
class StreamStats:
    """Observed statistics for one stream over a simulation run.

    Attributes
    ----------
    tokens:
        Number of tokens that passed through the stream.
    max_occupancy:
        Highest number of tokens simultaneously buffered.
    reader_stall_cycles:
        Total cycles the consumer spent waiting on an empty FIFO (including
        waiting for a token's ready timestamp).
    writer_stall_cycles:
        Total cycles the producer spent waiting on a full FIFO
        (back-pressure).
    """

    tokens: int = 0
    max_occupancy: int = 0
    reader_stall_cycles: float = 0.0
    writer_stall_cycles: float = 0.0

    def merge(self, other: "StreamStats") -> "StreamStats":
        """Combine statistics from two runs (used by multi-region engines)."""
        return StreamStats(
            tokens=self.tokens + other.tokens,
            max_occupancy=max(self.max_occupancy, other.max_occupancy),
            reader_stall_cycles=self.reader_stall_cycles + other.reader_stall_cycles,
            writer_stall_cycles=self.writer_stall_cycles + other.writer_stall_cycles,
        )


@dataclass
class Stream:
    """A bounded SPSC FIFO carrying timestamped tokens.

    Parameters
    ----------
    name:
        Unique name within the simulator (used in graphs and diagnostics).
    depth:
        FIFO capacity in tokens; must be >= 1.
    per_option:
        Annotation only: ``True`` for streams carrying one token per option
        (red arrows of paper Fig. 2), ``False`` for per-time-point streams
        (blue arrows).  Used by the figure renderers.
    """

    name: str
    depth: int = DEFAULT_STREAM_DEPTH
    per_option: bool = False
    stats: StreamStats = field(default_factory=StreamStats)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise SimulationError(f"stream {self.name!r}: depth must be >= 1")
        # The scheduler's hot loop (Simulator._step) works on this deque
        # and ``depth`` directly; push/pop are the checked interface.
        self._fifo: deque[tuple[float, Any]] = deque()
        self.reader: "Process | None" = None
        self.writer: "Process | None" = None

    # ------------------------------------------------------------------
    # Registration (enforces single-producer single-consumer)
    # ------------------------------------------------------------------
    def bind_reader(self, process: "Process") -> None:
        """Register ``process`` as the unique consumer."""
        if self.reader is not None and self.reader is not process:
            raise SimulationError(
                f"stream {self.name!r} already has reader {self.reader.name!r}; "
                f"cannot also attach {process.name!r} (streams are SPSC)"
            )
        self.reader = process

    def bind_writer(self, process: "Process") -> None:
        """Register ``process`` as the unique producer."""
        if self.writer is not None and self.writer is not process:
            raise SimulationError(
                f"stream {self.name!r} already has writer {self.writer.name!r}; "
                f"cannot also attach {process.name!r} (streams are SPSC)"
            )
        self.writer = process

    # ------------------------------------------------------------------
    # FIFO operations (used by the scheduler, not end users)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._fifo)

    @property
    def full(self) -> bool:
        """Whether a write would block right now."""
        return len(self._fifo) >= self.depth

    @property
    def empty(self) -> bool:
        """Whether a read would block right now."""
        return not self._fifo

    def push(self, ready_time: float, value: Any) -> None:
        """Append a token; caller must have checked :attr:`full`."""
        if self.full:
            raise SimulationError(f"push to full stream {self.name!r}")
        self._fifo.append((ready_time, value))
        self.stats.tokens += 1
        if len(self._fifo) > self.stats.max_occupancy:
            self.stats.max_occupancy = len(self._fifo)

    def pop(self) -> tuple[float, Any]:
        """Remove and return ``(ready_time, value)``; caller checks :attr:`empty`."""
        if self.empty:
            raise SimulationError(f"pop from empty stream {self.name!r}")
        return self._fifo.popleft()

    def drain(self) -> list[Any]:
        """Remove and return all buffered values (between region invocations)."""
        values = [v for _, v in self._fifo]
        self._fifo.clear()
        return values

    def reset(self) -> None:
        """Clear FIFO contents and statistics (fresh simulation)."""
        self._fifo.clear()
        self.stats = StreamStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stream({self.name!r}, depth={self.depth}, "
            f"occupancy={len(self._fifo)})"
        )
