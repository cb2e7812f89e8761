"""Unit tests for the event-queue primitives: ordering, single-use
events, clock monotonicity, determinism."""

import random

import pytest

from repro.errors import ValidationError
from repro.sim import Clock, Event, EventQueue, Simulation


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        late = q.push(Event(time=2.0))
        early = q.push(Event(time=1.0))
        assert q.pop() is early
        assert q.pop() is late

    def test_equal_timestamps_pop_in_push_order(self):
        """The stable tie-break: same instant, same priority → push order."""
        q = EventQueue()
        events = [q.push(Event(time=1.0)) for _ in range(50)]
        assert [q.pop() for _ in range(50)] == events

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        low = q.push(Event(time=1.0, priority=5))
        high = q.push(Event(time=1.0, priority=0))
        assert q.pop() is high
        assert q.pop() is low

    def test_peek_does_not_remove(self):
        q = EventQueue()
        e = q.push(Event(time=3.0))
        assert q.peek() is e
        assert len(q) == 1
        assert q.pop() is e
        assert q.peek() is None

    def test_pop_empty_raises(self):
        with pytest.raises(ValidationError):
            EventQueue().pop()

    def test_events_are_single_use(self):
        q = EventQueue()
        e = q.push(Event(time=1.0))
        q.pop()
        with pytest.raises(ValidationError):
            q.push(e)

    def test_deterministic_under_fixed_seed(self):
        """Same seeded schedule → identical execution order, run to run."""

        def replay(seed):
            gen = random.Random(seed)
            q = EventQueue()
            for i in range(200):
                q.push(Event(time=gen.choice([0.0, 1.0, 2.0]), payload=i))
            return [q.pop().payload for _ in range(200)]

        assert replay(7) == replay(7)
        assert replay(7) != replay(8)


class TestClock:
    def test_monotone(self):
        c = Clock()
        assert c.advance_to(1.5) == 1.5
        with pytest.raises(ValidationError):
            c.advance_to(1.0)

    def test_advance_to_same_instant_is_allowed(self):
        c = Clock(2.0)
        assert c.advance_to(2.0) == 2.0


class TestSimulation:
    def test_runs_events_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(2.0, fired.append, payload="b")
        sim.schedule_at(1.0, fired.append, payload="a")
        assert sim.run() == 2
        assert fired == ["a", "b"]
        assert sim.now == 2.0

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulation()
        fired = []

        def first(_):
            fired.append("first")
            sim.schedule_at(sim.now + 0.5, lambda _: fired.append("second"))

        sim.schedule_at(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 1.5

    def test_cannot_schedule_into_the_past(self):
        sim = Simulation()
        sim.schedule_at(1.0, lambda _: None)
        sim.run()
        with pytest.raises(ValidationError):
            sim.schedule_at(0.5, lambda _: None)

    def test_run_until_leaves_later_events_queued(self):
        sim = Simulation()
        fired = []
        sim.schedule_at(1.0, fired.append, payload=1)
        sim.schedule_at(5.0, fired.append, payload=5)
        assert sim.run(until=2.0) == 1
        assert fired == [1]
        assert sim.now == 2.0
        assert sim.run() == 1
        assert fired == [1, 5]

    def test_trace_hooks_see_every_event(self):
        sim = Simulation()
        seen = []
        sim.add_trace(lambda e: seen.append((e.time, e.label)))
        sim.schedule_at(1.0, lambda _: None, label="one")
        sim.schedule_at(2.0, lambda _: None, label="two")
        sim.run()
        assert seen == [(1.0, "one"), (2.0, "two")]


class TestCancellationEdges:
    """A fired event is dead: events are single-use."""

    def test_repush_fired_event_raises(self):
        q = EventQueue()
        e = q.push(Event(time=1.0))
        q.pop()
        with pytest.raises(ValidationError):
            q.push(e)
