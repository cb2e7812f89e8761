"""Event primitives: the heap-ordered queue and the simulated clock.

The whole unified simulator rests on two small invariants enforced
here:

* **deterministic ordering** — events pop in ``(time, priority, seq)``
  order, where ``seq`` is the push (or reservation) sequence number.
  Two events scheduled for the same instant at the same priority
  therefore execute in the order they were scheduled, run after run,
  interpreter after interpreter — the stable tie-break every
  conformance test leans on;
* **monotone time** — :class:`Clock` refuses to move backwards, turning
  causality bugs into loud :class:`~repro.errors.ValidationError`\\ s
  instead of silently reordered timelines.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import ValidationError

__all__ = ["Event", "EventQueue", "Clock"]


@dataclass(order=False, eq=False)
class Event:
    """One scheduled occurrence in simulated time.

    Attributes
    ----------
    time:
        Absolute simulated instant the event fires.
    priority:
        Secondary sort key at equal times; *lower* fires first (the
        convention of every OS run queue).
    seq:
        Push sequence number — the final, stable tie-break.  Assigned by
        the queue; two events are never equal under the full key.
    callback:
        ``callback(payload)``, invoked when the event executes.
    payload:
        Opaque datum handed back to the callback.
    label:
        Optional trace label (shows up in trace hooks).
    """

    time: float
    priority: int = 0
    seq: int = -1
    callback: Callable[[Any], None] | None = None
    payload: Any = None
    label: str = ""

    @property
    def key(self) -> tuple[float, int, int]:
        """The full deterministic ordering key."""
        return (self.time, self.priority, self.seq)


class EventQueue:
    """A min-heap of :class:`Event` with stable ties.

    Examples
    --------
    >>> q = EventQueue()
    >>> first = q.push(Event(time=1.0))
    >>> second = q.push(Event(time=1.0))
    >>> q.pop() is first  # same instant: push order wins
    True
    >>> q.pop() is second
    True
    """

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[float, int, int], Event]] = []
        self._seq = 0

    def __len__(self) -> int:
        """Events still queued."""
        return len(self._heap)

    def push(self, event: Event) -> Event:
        """Enqueue ``event``, assigning its sequence number; returns it.

        Events are **single-use**: re-pushing an event that was already
        queued raises, including one that has since fired — schedule a
        fresh :class:`Event` instead.
        """
        if event.time != event.time:  # NaN check without math.isnan import
            raise ValidationError("event time must not be NaN")
        if event.seq >= 0:
            raise ValidationError(
                f"event already queued (seq={event.seq}); events are single-use"
            )
        event.seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (event.key, event))
        return event

    def reserve(self, n: int) -> int:
        """Take the next ``n`` sequence numbers without queueing anything.

        Returns the first.  Items ordered outside the heap (the
        simulation's arrival source) hold their place in the
        ``(time, priority, seq)`` order with them.
        """
        first = self._seq
        self._seq += n
        return first

    def peek(self) -> Event | None:
        """The next event without removing it (``None`` if empty)."""
        return self._heap[0][1] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next event in ``(time, priority, seq)`` order."""
        if not self._heap:
            raise ValidationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[1]


class Clock:
    """The simulation's single monotone notion of *now*.

    Parameters
    ----------
    start:
        Initial simulated time (default 0).
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, time: float) -> float:
        """Move the clock forward to ``time`` (never backwards)."""
        if time < self._now:
            raise ValidationError(
                f"simulated time cannot run backwards: {time} < {self._now}"
            )
        self._now = time
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Clock(now={self._now})"
