"""Contended resources: busy-window reservations.

:class:`Resource` is the *busy-window* idiom that covers every timing
silo the simulator replaced.  ``reserve(ready, service)`` starts work at
``max(ready, busy_until)`` and occupies the resource for exactly
``service`` seconds.  This is, verbatim, the arithmetic of the legacy
per-card ``busy_until`` tracking in the quote server, the host-thread
serialisation of :class:`~repro.cluster.interconnect.HostLinkModel`
dispatches, and the per-card busy accumulation of the cluster and risk
roll-ups — which is what lets the conformance suite pin the rebuilt
layers bit-identical.

:class:`CompletionTracker` is the small in-flight window helper the
admission controller needs: a min-heap of completion instants with
"drain everything done by *now*" semantics.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.core.types import slot_stores
from repro.errors import ValidationError
from repro.sim.engine import Simulation

__all__ = ["Reservation", "Resource", "CompletionTracker"]


@dataclass(frozen=True, slots=True, init=False)
class Reservation:
    """One busy window granted by a :class:`Resource`.

    Built once per reservation: its ``__init__`` stores each field
    through its slot (:func:`~repro.core.types.slot_stores`), and checks
    nothing.

    Attributes
    ----------
    resource:
        Name of the granting resource.
    ready_s:
        Instant the work was ready to start (request time).
    start_s:
        Instant the resource actually started it (``>= ready_s``).
    done_s:
        Completion instant (``start_s + service_s``).
    service_s:
        Busy time charged.
    """

    resource: str
    ready_s: float
    start_s: float
    done_s: float
    service_s: float

    def __init__(
        self, resource: str, ready_s: float, start_s: float, done_s: float,
        service_s: float,
    ) -> None:
        set_resource, set_ready_s, set_start_s, set_done_s, set_service_s = (
            _RESERVATION_STORES
        )
        set_resource(self, resource)
        set_ready_s(self, ready_s)
        set_start_s(self, start_s)
        set_done_s(self, done_s)
        set_service_s(self, service_s)

    @property
    def waited_s(self) -> float:
        """Queueing delay before service began."""
        return self.start_s - self.ready_s


_RESERVATION_STORES = slot_stores(Reservation)


class Resource:
    """A serially-occupied resource with busy-window accounting.

    Reservations are granted in call order: work ready at ``ready``
    starts at ``max(ready, busy_until)`` — exactly the legacy
    ``busy_until`` update — and the resource accumulates busy seconds
    and reservation counts.

    Parameters
    ----------
    name:
        Identifier used in reservations and traces.
    sim:
        Optional owning simulation; reservations then assert they are
        not granted in the simulated past.
    recorder:
        Optional telemetry span recorder (anything with ``enabled`` and
        ``record(...)``, e.g. :class:`repro.telemetry.SpanRecorder`).
        When enabled, every busy window is emitted as a span on a track
        named after the resource.  Kept duck-typed so :mod:`repro.sim`
        has no telemetry dependency; ``None`` (the default) costs one
        attribute check per reservation.

    Availability
    ------------
    A resource is *available* by default.  :meth:`add_downtime` registers
    half-open ``[start, end)`` windows during which the resource cannot
    start work: a reservation whose prospective start falls inside a down
    window is pushed to the window's end (``end`` may be ``math.inf`` for
    a permanent outage).  With no windows registered the reservation
    arithmetic is exactly the legacy ``max(ready, busy_until)`` — the
    fault-free conformance pin.  Downtime models *when work may start*;
    a window that would straddle a later outage is the caller's concern
    (the fault-aware serving layer detects and fails such dispatches
    explicitly).
    """

    __slots__ = ("name", "sim", "busy_until", "busy_seconds",
                 "n_reservations", "recorder", "down_windows")

    def __init__(
        self,
        name: str = "resource",
        *,
        sim: Simulation | None = None,
        recorder=None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.busy_until = 0.0
        self.busy_seconds = 0.0
        self.n_reservations = 0
        self.recorder = recorder
        self.down_windows: list[tuple[float, float]] = []

    # ------------------------------------------------------------------
    def add_downtime(self, start_s: float, end_s: float) -> None:
        """Register an unavailability window ``[start_s, end_s)``.

        Windows may be added in any order; they are kept sorted.  Use
        ``math.inf`` as ``end_s`` for a permanent outage.
        """
        if end_s <= start_s:
            raise ValidationError(
                f"downtime must end after it starts: [{start_s}, {end_s})"
            )
        self.down_windows.append((start_s, end_s))
        self.down_windows.sort()

    def is_down(self, t: float) -> bool:
        """Whether the resource is inside a down window at instant ``t``."""
        return any(start <= t < end for start, end in self.down_windows)

    def next_available(self, t: float) -> float:
        """Earliest instant ``>= t`` outside every down window.

        Returns ``math.inf`` when a permanent outage covers ``t``.
        """
        for start, end in self.down_windows:
            if start <= t < end:
                t = end
        return t

    def peek_start(self, ready_s: float) -> float:
        """The instant a reservation ready at ``ready_s`` would start.

        The same arithmetic :meth:`reserve` applies — ``max(ready,
        busy_until)`` pushed past any down window — without granting
        the window, so fault-aware dispatchers can inspect prospective
        busy windows before committing them.
        """
        start = max(ready_s, self.busy_until)
        if self.down_windows:
            start = self.next_available(start)
        return start

    def reserve(
        self,
        ready_s: float,
        service_s: float,
        *,
        span_name: str | None = None,
        span_kind: str = "",
        span_args=None,
    ) -> Reservation:
        """Grant the next busy window: start at ``max(ready, busy_until)``.

        Parameters
        ----------
        ready_s:
            Instant the work becomes available to this resource.
        service_s:
            Busy time the work occupies (``>= 0``).  **Zero is legal**:
            a zero-service reservation starts and completes at the same
            instant (``done == start``), leaves ``busy_until`` where the
            start landed, accumulates no busy seconds, and still counts
            one reservation — the contract boundary tests pin this.
        span_name / span_kind / span_args:
            Telemetry metadata for the busy-window span emitted when a
            recording :attr:`recorder` is attached (name defaults to the
            resource name).  Ignored otherwise.
        """
        if not service_s >= 0:
            raise ValidationError(f"service_s must be >= 0, got {service_s}")
        if self.sim is not None and ready_s < self.sim.now:
            raise ValidationError(
                f"resource {self.name!r}: reservation ready at {ready_s} "
                f"is in the simulated past (now={self.sim.now})"
            )
        start = max(ready_s, self.busy_until)
        if self.down_windows:
            start = self.next_available(start)
        done = start + service_s
        self.busy_until = done
        self.busy_seconds += service_s
        self.n_reservations += 1
        reservation = Reservation(self.name, ready_s, start, done, service_s)
        recorder = self.recorder
        if recorder is not None and recorder.enabled:
            recorder.record(
                span_name if span_name is not None else self.name,
                start,
                done,
                track=self.name,
                category="resource",
                kind=span_kind,
                args=span_args if span_args is not None else {},
            )
        return reservation

    def utilisation(self, span_s: float) -> float:
        """Busy fraction of a ``span_s``-second observation window."""
        return self.busy_seconds / span_s if span_s > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Resource({self.name!r}, busy_until={self.busy_until}, "
            f"n={self.n_reservations})"
        )


class CompletionTracker:
    """A min-heap of in-flight completion instants.

    The admission controller's view of outstanding work: push each
    dispatched completion time, drain everything finished by *now*, and
    the length is the in-flight population.
    """

    def __init__(self) -> None:
        self._heap: list[float] = []

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def next_done_s(self) -> float:
        """The earliest in-flight completion (``inf`` with none in flight)."""
        return self._heap[0] if self._heap else math.inf

    def push(self, done_s: float) -> None:
        """Record one in-flight completion instant."""
        heapq.heappush(self._heap, done_s)

    def drain(self, now_s: float) -> int:
        """Drop every completion at or before ``now_s``; returns the count."""
        dropped = 0
        while self._heap and self._heap[0] <= now_s:
            heapq.heappop(self._heap)
            dropped += 1
        return dropped
