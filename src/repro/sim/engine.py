"""The event loop: one clock, one queue, every subsystem.

:class:`Simulation` is the unified discrete-event core the cluster,
serving and risk layers all drive.  It deliberately stays small — a
:class:`~repro.sim.events.Clock`, a :class:`~repro.sim.events.EventQueue`
and trace hooks — because the three legacy clocks it replaced were all,
at bottom, the same two operations: *schedule something at a simulated
instant* and *reserve a busy window on a contended resource*
(:mod:`repro.sim.resources`).

Callbacks may schedule further events (at or after the current instant)
and reserve resources; :meth:`Simulation.run` executes events in
deterministic ``(time, priority, seq)`` order until the queue drains or
``until`` is reached.

A replay's request arrivals are known up front and already sorted, so
they need no heap: :meth:`Simulation.feed` registers them as one
arrival source that :meth:`Simulation.run` merges with the queue by the
same key.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import ValidationError
from repro.sim.events import Clock, Event, EventQueue

__all__ = ["Simulation"]


class Simulation:
    """A discrete-event simulation: clock + queue + trace hooks.

    Parameters
    ----------
    start:
        Initial simulated time.

    Examples
    --------
    >>> sim = Simulation()
    >>> fired = []
    >>> _ = sim.schedule_at(2.0, lambda t: fired.append(t), payload="b")
    >>> _ = sim.schedule_at(1.0, lambda t: fired.append(t), payload="a")
    >>> sim.run()
    2
    >>> fired
    ['a', 'b']
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = Clock(start)
        self.queue = EventQueue()
        self._trace_hooks: list[Callable[[Event], None]] = []
        self._arrivals: _ArrivalSource | None = None
        self.n_executed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    def add_trace(self, hook: Callable[[Event], None]) -> None:
        """Register a hook called (in registration order) as each event runs."""
        self._trace_hooks.append(hook)

    # ------------------------------------------------------------------
    def schedule_at(
        self,
        time: float,
        callback: Callable[[Any], None],
        *,
        payload: Any = None,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback(payload)`` at absolute instant ``time``.

        ``time`` must not precede the current clock.  Returns the queued
        :class:`~repro.sim.events.Event`.
        """
        if time < self.clock.now:
            raise ValidationError(
                f"cannot schedule into the past: {time} < now={self.clock.now}"
            )
        return self.queue.push(
            Event(
                time=time,
                priority=priority,
                callback=callback,
                payload=payload,
                label=label,
            )
        )

    def feed(
        self,
        times: Sequence[float],
        payloads: Sequence[Any],
        callback: Callable[[Any], None],
        *,
        label: str = "",
    ) -> None:
        """Register a sorted arrival source: ``callback(payloads[i])`` at ``times[i]``.

        The items run exactly as if each had been scheduled here with
        :meth:`schedule_at` at priority 0, in order: the source takes
        the next ``len(times)`` sequence numbers now, and :meth:`run`
        executes item *i* whenever ``(times[i], 0, seq_i)`` precedes
        the queue's next key.  No item is an event on the heap, and
        trace hooks get an :class:`~repro.sim.events.Event` built for
        each item only while any hook is registered.

        ``times`` must be non-decreasing, not before the current clock
        and not NaN.  One source may be pending at a time.
        """
        if self._arrivals is not None:
            raise ValidationError("an arrival source is already pending")
        times = list(times)
        payloads = list(payloads)
        if len(times) != len(payloads):
            raise ValidationError(
                f"{len(times)} arrival times for {len(payloads)} payloads"
            )
        if not times:
            return
        if any(map(math.isnan, times)):
            raise ValidationError("arrival times must not be NaN")
        if times[0] < self.clock.now:
            raise ValidationError(
                f"cannot feed arrivals into the past: {times[0]} < "
                f"now={self.clock.now}"
            )
        if not all(map(operator.le, times, times[1:])):
            raise ValidationError("arrival times must be non-decreasing")
        self._arrivals = _ArrivalSource(
            times, payloads, callback, label, self.queue.reserve(len(times))
        )

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> int:
        """Drain the queue (or run up to instant ``until``, inclusive).

        Queued events and fed arrivals execute in one
        ``(time, priority, seq)`` order.  Returns the number of both
        executed by this call.  With ``until`` given, later ones stay
        pending and the clock advances to ``until`` exactly.
        """
        executed = 0
        queue, clock, hooks = self.queue, self.clock, self._trace_hooks
        while True:
            head = queue.peek()
            source = self._arrivals
            if source is not None:
                i = source.next
                t = source.times[i]
                if head is None or (t, 0, source.seq0 + i) < (
                    head.time, head.priority, head.seq
                ):
                    if until is not None and t > until:
                        break
                    source.next = i + 1
                    if source.next == len(source.times):
                        self._arrivals = None
                    clock.advance_to(t)
                    if hooks:
                        event = source.event(i)
                        for hook in hooks:
                            hook(event)
                    source.callback(source.payloads[i])
                    self.n_executed += 1
                    executed += 1
                    continue
            if head is None or (until is not None and head.time > until):
                break
            event = queue.pop()
            clock.advance_to(event.time)
            for hook in hooks:
                hook(event)
            if event.callback is not None:
                event.callback(event.payload)
            self.n_executed += 1
            executed += 1
        if until is not None and until > clock.now:
            clock.advance_to(until)
        return executed


class _ArrivalSource:
    """A sorted run of arrivals holding reserved sequence numbers."""

    __slots__ = ("times", "payloads", "callback", "label", "seq0", "next")

    def __init__(self, times, payloads, callback, label, seq0) -> None:
        self.times = times
        self.payloads = payloads
        self.callback = callback
        self.label = label
        self.seq0 = seq0
        #: Index of the next item to run.
        self.next = 0

    def event(self, i: int) -> Event:
        """Item ``i`` as the executed event trace hooks observe."""
        return Event(
            time=self.times[i],
            seq=self.seq0 + i,
            callback=self.callback,
            payload=self.payloads[i],
            label=self.label,
        )
