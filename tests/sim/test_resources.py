"""Unit tests for the contention primitives: Resource busy windows and
the in-flight CompletionTracker."""

import pytest

from repro.errors import ValidationError
from repro.sim import CompletionTracker, Resource, Simulation


class TestResource:
    def test_idle_resource_starts_immediately(self):
        r = Resource("card")
        w = r.reserve(2.0, 0.5)
        assert (w.start_s, w.done_s, w.waited_s) == (2.0, 2.5, 0.0)
        assert r.busy_until == 2.5

    def test_busy_resource_queues_the_window(self):
        """The legacy recurrence: start = max(ready, busy_until)."""
        r = Resource("card")
        r.reserve(0.0, 3.0)
        w = r.reserve(1.0, 2.0)
        assert w.start_s == 3.0
        assert w.done_s == 5.0
        assert w.waited_s == 2.0

    def test_busy_seconds_accumulate_service_not_span(self):
        r = Resource("card")
        r.reserve(0.0, 1.0)
        r.reserve(10.0, 2.0)  # idle gap from 1.0 to 10.0
        assert r.busy_seconds == 3.0
        assert r.n_reservations == 2
        assert r.utilisation(12.0) == 3.0 / 12.0

    def test_zero_length_window_is_allowed(self):
        r = Resource()
        w = r.reserve(1.0, 0.0)
        assert w.start_s == w.done_s == 1.0

    def test_negative_service_rejected(self):
        with pytest.raises(ValidationError):
            Resource().reserve(0.0, -1.0)

    def test_sim_attached_resource_rejects_past_reservations(self):
        sim = Simulation()
        r = Resource("card", sim=sim)
        sim.schedule_at(5.0, lambda _: None)
        sim.run()
        with pytest.raises(ValidationError):
            r.reserve(1.0, 1.0)


class TestCompletionTracker:
    def test_drain_pops_everything_due(self):
        t = CompletionTracker()
        for done in (3.0, 1.0, 2.0, 5.0):
            t.push(done)
        assert len(t) == 4
        assert t.drain(2.0) == 2  # 1.0 and 2.0 (inclusive)
        assert len(t) == 2
        assert t.drain(10.0) == 2
        assert len(t) == 0

    def test_drain_on_empty_is_zero(self):
        assert CompletionTracker().drain(1.0) == 0


class TestZeroServiceContract:
    """The documented zero-service reservation contract: done == start,
    busy_until parked at the start, no busy seconds, one reservation."""

    def test_full_contract(self):
        r = Resource("card")
        r.reserve(0.0, 2.0)
        w = r.reserve(1.0, 0.0)
        assert w.start_s == w.done_s == 2.0
        assert r.busy_until == 2.0
        assert r.busy_seconds == 2.0  # nothing added
        assert r.n_reservations == 2

    def test_zero_service_pushed_past_downtime(self):
        r = Resource("card")
        r.add_downtime(1.0, 3.0)
        w = r.reserve(2.0, 0.0)
        assert w.start_s == w.done_s == 3.0


class TestDowntime:
    """Availability windows: half-open [start, end), kept sorted,
    pushing only starts that land *inside* a window (a busy window that
    would straddle a later outage is the dispatcher's concern)."""

    def test_windows_are_half_open(self):
        r = Resource("card")
        r.add_downtime(1.0, 2.0)
        assert not r.is_down(0.999)
        assert r.is_down(1.0)
        assert r.is_down(1.999)
        assert not r.is_down(2.0)

    def test_next_available_chains_adjacent_windows(self):
        r = Resource("card")
        r.add_downtime(3.0, 4.0)  # insertion order irrelevant
        r.add_downtime(1.0, 3.0)
        assert r.next_available(1.5) == 4.0
        assert r.next_available(0.5) == 0.5
        assert r.next_available(4.0) == 4.0

    def test_permanent_outage_is_infinite(self):
        import math

        r = Resource("card")
        r.add_downtime(1.0, math.inf)
        assert r.next_available(2.0) == math.inf
        assert r.peek_start(5.0) == math.inf

    def test_reserve_pushed_past_window(self):
        r = Resource("card")
        r.add_downtime(1.0, 2.0)
        w = r.reserve(1.5, 0.5)
        assert (w.start_s, w.done_s) == (2.0, 2.5)

    def test_straddling_window_not_pushed(self):
        """A start *before* the window is granted as-is — mid-window
        failure modelling lives in the fault-aware dispatcher, not
        here."""
        r = Resource("card")
        r.add_downtime(1.0, 2.0)
        w = r.reserve(0.5, 1.0)
        assert (w.start_s, w.done_s) == (0.5, 1.5)

    def test_peek_start_matches_reserve_without_granting(self):
        r = Resource("card")
        r.add_downtime(1.0, 2.0)
        assert r.peek_start(1.5) == 2.0
        assert r.n_reservations == 0
        assert r.busy_until == 0.0
        assert r.reserve(1.5, 0.5).start_s == 2.0
        # After the grant, busy_until dominates the peek.
        assert r.peek_start(2.2) == 2.5

    def test_degenerate_window_rejected(self):
        r = Resource("card")
        with pytest.raises(ValidationError):
            r.add_downtime(2.0, 2.0)
        with pytest.raises(ValidationError):
            r.add_downtime(2.0, 1.0)
