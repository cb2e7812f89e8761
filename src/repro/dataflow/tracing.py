"""Event tracing for dataflow simulations (telemetry adapter).

Attach a :class:`Trace` to a :class:`~repro.dataflow.engine.Simulator` via
``sim.tracer = Trace()`` to record every stream read/write with its cycle
timestamp.  Traces support waveform-style occupancy reconstruction and a
textual timeline, which the examples use to visualise pipeline fill/drain —
the phenomenon the paper's inter-option optimisation removes.

Since the unified telemetry layer (:mod:`repro.telemetry`) landed, this
module is an *adapter*: a :class:`Trace` can mirror every event into a
telemetry span recorder (``Trace(recorder=...)``), and :attr:`Trace.spans`
views the recorded events as :class:`~repro.telemetry.Span` instants, so
dataflow traces export through the same Chrome-trace/CSV pipeline as
serving and risk runs.  A standalone :class:`Trace` (no recorder) keeps
its events for the occupancy analyses only.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    Attributes
    ----------
    kind:
        ``"read"`` or ``"write"``.
    time:
        Cycle at which the event committed.
    process:
        Acting process name.
    stream:
        Stream involved.
    """

    kind: str
    time: float
    process: str
    stream: str


@dataclass
class Trace:
    """In-memory event recorder with simple analyses.

    Attributes
    ----------
    events:
        Committed transfers in record order (the legacy surface every
        occupancy analysis reads).
    recorder:
        Optional telemetry span recorder; when attached and enabled,
        every event is mirrored as an instant span (``start == end`` at
        the commit cycle) on the stream's track, so a dataflow run
        exports alongside serving/risk telemetry.
    """

    events: list[TraceEvent] = field(default_factory=list)
    recorder: object | None = None

    def record(self, kind: str, time: float, process: str, stream: str) -> None:
        """Called by the simulator scheduler on every committed transfer."""
        self.events.append(
            TraceEvent(kind=kind, time=time, process=process, stream=stream)
        )
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.record(
                kind,
                time,
                time,
                track=stream,
                category="dataflow",
                args={"process": process},
            )

    def __len__(self) -> int:
        return len(self.events)

    @property
    def spans(self):
        """The events viewed as telemetry instant spans (record order).

        Cycle timestamps are carried through unscaled: dataflow traces
        tick in cycles, not simulated seconds, and the exporters only
        need monotone timestamps.
        """
        from repro.telemetry import Span

        return tuple(
            Span(
                name=e.kind,
                start_s=e.time,
                end_s=e.time,
                track=e.stream,
                category="dataflow",
                args={"process": e.process},
            )
            for e in self.events
        )

    # ------------------------------------------------------------------
    def for_stream(self, stream: str) -> list[TraceEvent]:
        """All events on one stream, in commit order."""
        return [e for e in self.events if e.stream == stream]

    def occupancy_profile(self, stream: str) -> list[tuple[float, int]]:
        """Piecewise-constant FIFO occupancy: ``(time, occupancy)`` steps.

        Writes increment, reads decrement; events are sorted by time with
        reads applied before writes at equal timestamps (a token cannot be
        read and still occupy its slot).
        """
        deltas: list[tuple[float, int, int]] = []
        for e in self.for_stream(stream):
            if e.kind == "write":
                deltas.append((e.time, 1, +1))
            elif e.kind == "read":
                deltas.append((e.time, 0, -1))
        deltas.sort()
        profile: list[tuple[float, int]] = []
        occ = 0
        for time, _, d in deltas:
            occ += d
            if profile and profile[-1][0] == time:
                profile[-1] = (time, occ)
            else:
                profile.append((time, occ))
        return profile

    def occupancy_at(self, stream: str, time: float) -> int:
        """FIFO occupancy of ``stream`` at cycle ``time``."""
        profile = self.occupancy_profile(stream)
        times = [t for t, _ in profile]
        idx = bisect_right(times, time) - 1
        return profile[idx][1] if idx >= 0 else 0

    def first_output_time(self, stream: str) -> float | None:
        """Cycle of the first read committed on ``stream`` (fill latency probe)."""
        for e in self.events:
            if e.stream == stream and e.kind == "read":
                return e.time
        return None

    def timeline(self, limit: int = 50) -> str:
        """Human-readable event log (first ``limit`` events by time)."""
        ordered = sorted(self.events, key=lambda e: (e.time, e.kind))[:limit]
        lines = [
            f"{e.time:>10.1f}  {e.kind:<5}  {e.process:<24} {e.stream}"
            for e in ordered
        ]
        header = f"{'cycle':>10}  {'kind':<5}  {'process':<24} stream"
        return "\n".join([header, *lines])
