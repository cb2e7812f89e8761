"""repro.sim — the unified discrete-event simulation core.

One clock for every simulated subsystem.  Before this package, three
layers each carried an ad-hoc clock: the cluster's per-card busy
windows, the quote server's ``busy_until`` / host-dispatch
serialisation, and the risk layer's grid-timing replay.  They are all
now expressions of two primitives:

* :class:`~repro.sim.engine.Simulation` — a monotone
  :class:`~repro.sim.events.Clock` plus an
  :class:`~repro.sim.events.EventQueue` (deterministic
  ``(time, priority, seq)`` ordering), one sorted arrival source
  (:meth:`~repro.sim.engine.Simulation.feed`) and trace hooks;
* :class:`~repro.sim.resources.Resource` — busy-window reservations
  (``start = max(ready, busy_until)``), the exact arithmetic of every
  legacy clock, which is what lets the timing-conformance suite pin the
  rebuilt layers bit-identical to their pre-refactor numbers.

:class:`~repro.sim.resources.CompletionTracker` adds the in-flight
window the admission controller counts against.

See ``docs/sim.md`` for the mapping from each subsystem onto these
primitives.
"""

from repro.sim.engine import Simulation
from repro.sim.events import Clock, Event, EventQueue
from repro.sim.resources import CompletionTracker, Reservation, Resource

__all__ = [
    "Clock",
    "CompletionTracker",
    "Event",
    "EventQueue",
    "Reservation",
    "Resource",
    "Simulation",
]
