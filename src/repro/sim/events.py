"""Event primitives: the heap-ordered queue and the simulated clock.

The whole unified simulator rests on three small invariants enforced
here:

* **deterministic ordering** — events pop in ``(time, priority, seq)``
  order, where ``seq`` is the push (or reservation) sequence number.
  Two events scheduled for the same instant at the same priority
  therefore execute in the order they were scheduled, run after run,
  interpreter after interpreter — the stable tie-break every
  conformance test leans on;
* **cancellation without rebuild** — cancelling marks the entry dead and
  :meth:`EventQueue.pop` skips it (the standard lazy-deletion heap
  idiom), so O(1) cancel and no heap surgery;
* **monotone time** — :class:`Clock` refuses to move backwards, turning
  causality bugs into loud :class:`~repro.errors.SimulationError`\\ s
  instead of silently reordered timelines.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
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
    cancelled:
        Set by :meth:`EventQueue.cancel`; cancelled events are skipped.
    fired:
        Set by :meth:`EventQueue.pop` when the event is handed to the
        executor.  A fired event is dead: cancelling it is a no-op and
        re-pushing it raises (events are single-use).
    """

    time: float
    priority: int = 0
    seq: int = -1
    callback: Callable[[Any], None] | None = None
    payload: Any = None
    label: str = ""
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)

    @property
    def key(self) -> tuple[float, int, int]:
        """The full deterministic ordering key."""
        return (self.time, self.priority, self.seq)

    def cancel(self) -> None:
        """Mark the event dead; the queue will skip it on pop."""
        self.cancelled = True


class EventQueue:
    """A min-heap of :class:`Event` with stable ties and lazy deletion.

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
        self._alive = 0

    def __len__(self) -> int:
        """Live (non-cancelled) events still queued."""
        return self._alive

    def __bool__(self) -> bool:
        return self._alive > 0

    def push(self, event: Event) -> Event:
        """Enqueue ``event``, assigning its sequence number.

        Returns the event itself so call sites can keep the handle for
        :meth:`cancel`.

        Events are **single-use**: re-pushing an event that was already
        queued raises, including one that has since been cancelled or
        has fired — schedule a fresh :class:`Event` instead (the lazy-
        deletion heap may still hold the stale entry, so reviving the
        object would corrupt ordering).
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
        self._alive += 1
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

    def cancel(self, event: Event) -> None:
        """Cancel a queued event (lazy deletion; O(1)).

        The call is idempotent and safe on dead events: cancelling an
        event that already fired, was already cancelled, or was never
        pushed is a **no-op** — the live count only decrements for an
        event that is genuinely still queued.  (Cancel-after-fire used
        to corrupt the count; the contract is now explicit and tested.)
        """
        if event.fired or event.cancelled or event.seq < 0:
            return
        event.cancel()
        self._alive -= 1

    def peek(self) -> Event | None:
        """The next live event without removing it (``None`` if empty)."""
        while self._heap and self._heap[0][1].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][1] if self._heap else None

    def pop(self) -> Event:
        """Remove and return the next live event in ``(time, priority, seq)`` order."""
        while self._heap:
            _, event = heapq.heappop(self._heap)
            if not event.cancelled:
                self._alive -= 1
                event.fired = True
                return event
        raise ValidationError("pop from an empty event queue")


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
