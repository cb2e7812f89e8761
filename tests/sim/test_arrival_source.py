"""The arrival source replays exactly like arrivals scheduled one by one.

:meth:`Simulation.feed` keeps a sorted arrival run off the heap and
merges it in :meth:`Simulation.run` by the full ``(time, priority,
seq)`` key.  The property below pins it to the reference it replaced:
every arrival pushed with :meth:`Simulation.schedule_at` at the moment
the source is registered.  Generated programs mix same-instant ties,
heap events at priorities -1, 0 and 1 before and after the source,
events scheduled from callbacks at the current instant, ``run(until=)``
splits and trace hooks on and off; callbacks, hook calls, return values
and the clock must all agree.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.sim import Simulation

_TIME = st.integers(min_value=0, max_value=6).map(float)
_PRIORITY = st.sampled_from([-1, 0, 1])
#: A callback's action: schedule a child ``delay`` later at ``priority``.
_ACTION = st.tuples(st.sampled_from([0.0, 1.0]), _PRIORITY)


@st.composite
def programs(draw) -> dict:
    """Arrivals, heap events around them, callback actions and run splits."""
    arrivals = sorted(draw(st.lists(_TIME, max_size=8)))
    before = draw(st.lists(st.tuples(_TIME, _PRIORITY), max_size=5))
    after = draw(st.lists(st.tuples(_TIME, _PRIORITY), max_size=5))
    names = (
        [("arrival", k) for k in range(len(arrivals))]
        + [("before", k) for k in range(len(before))]
        + [("after", k) for k in range(len(after))]
    )
    actions = {
        name: draw(st.lists(_ACTION, max_size=2)) for name in names
    }
    splits = sorted(
        draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.5, 6.0]),
                      max_size=3))
    )
    return {
        "arrivals": arrivals,
        "before": before,
        "after": after,
        "actions": actions,
        "splits": splits,
        "hooks": draw(st.booleans()),
    }


def _replay(program: dict, *, feed: bool) -> dict:
    """Run ``program`` with the arrivals fed, or scheduled one by one."""
    sim = Simulation()
    fired: list = []
    hooked: list = []
    children = itertools.count()

    def callback(payload) -> None:
        fired.append((payload, sim.now))
        for delay, priority in program["actions"].get(payload, ()):
            sim.schedule_at(
                sim.now + delay, callback, payload=("child", next(children)),
                priority=priority, label="child",
            )

    if program["hooks"]:
        sim.add_trace(lambda e: hooked.append(
            (e.time, e.priority, e.seq, e.label, e.payload)
        ))
    for k, (t, priority) in enumerate(program["before"]):
        sim.schedule_at(
            t, callback, payload=("before", k), priority=priority,
            label="before",
        )
    arrivals = program["arrivals"]
    payloads = [("arrival", k) for k in range(len(arrivals))]
    if feed:
        sim.feed(arrivals, payloads, callback, label="arrival")
    else:
        for t, payload in zip(arrivals, payloads):
            sim.schedule_at(t, callback, payload=payload, label="arrival")
    for k, (t, priority) in enumerate(program["after"]):
        sim.schedule_at(
            t, callback, payload=("after", k), priority=priority,
            label="after",
        )
    runs = []
    for until in program["splits"]:
        runs.append((sim.run(until=until), sim.now))
    runs.append((sim.run(), sim.now))
    return {
        "fired": fired,
        "hooked": hooked,
        "runs": runs,
        "n_executed": sim.n_executed,
    }


@given(program=programs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_fed_arrivals_replay_like_scheduled_ones(program):
    fed = _replay(program, feed=True)
    assert fed == _replay(program, feed=False)
    assert fed["n_executed"] == len(fed["fired"])


class TestFeed:
    def test_arrival_wins_ties_against_later_events(self):
        sim = Simulation()
        order = []
        sim.feed([1.0, 1.0], ["a0", "a1"], order.append)
        sim.schedule_at(1.0, order.append, payload="tick")
        sim.schedule_at(1.0, order.append, payload="urgent", priority=-1)
        assert sim.run() == 4
        assert order == ["urgent", "a0", "a1", "tick"]

    def test_run_until_leaves_later_arrivals_pending(self):
        sim = Simulation()
        order = []
        sim.feed([1.0, 2.0, 3.0], [1, 2, 3], order.append)
        assert sim.run(until=2.0) == 2
        assert sim.now == 2.0
        assert sim.run() == 1
        assert order == [1, 2, 3]

    def test_hooks_see_each_arrival_before_its_callback(self):
        sim = Simulation()
        seen = []
        sim.add_trace(lambda e: seen.append(("hook", e.payload, e.seq, e.label)))
        sim.feed([0.5, 0.5], ["x", "y"], lambda p: seen.append(("run", p)),
                 label="arrival")
        sim.run()
        assert seen == [
            ("hook", "x", 0, "arrival"), ("run", "x"),
            ("hook", "y", 1, "arrival"), ("run", "y"),
        ]

    def test_a_drained_source_can_be_replaced(self):
        sim = Simulation()
        order = []
        sim.feed([1.0], ["first"], order.append)
        with pytest.raises(ValidationError, match="already pending"):
            sim.feed([2.0], ["second"], order.append)
        sim.run()
        sim.feed([2.0], ["second"], order.append)
        sim.run()
        assert order == ["first", "second"]

    @pytest.mark.parametrize(
        "times,match",
        [
            ([1.0, math.nan], "NaN"),
            ([2.0, 1.0], "non-decreasing"),
            ([0.5], "into the past"),
        ],
    )
    def test_rejects_bad_times(self, times, match):
        sim = Simulation(start=1.0)
        with pytest.raises(ValidationError, match=match):
            sim.feed(times, [None] * len(times), print)

    def test_rejects_mismatched_payloads(self):
        with pytest.raises(ValidationError, match="payloads"):
            Simulation().feed([1.0, 2.0], [None], print)
