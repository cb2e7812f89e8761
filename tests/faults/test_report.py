"""FaultReport assembly: phases, recovery time, counter roll-up."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    ClusterHealth,
    FaultCounters,
    FaultPlan,
    FaultReport,
    build_fault_report,
)
from repro.faults.report import _p99_ms


def report(
    spec: str,
    completions,
    *,
    span_s: float = 1.0,
    n_cards: int = 2,
    window_s: float | None = None,
) -> FaultReport:
    plan = FaultPlan.from_spec(spec, seed=5)
    health = ClusterHealth(plan, n_cards)
    return build_fault_report(
        plan,
        health,
        completions,
        FaultCounters(),
        span_s=span_s,
        recovery_window_s=window_s,
    )


def steady(rate_hz: float, span_s: float, latency_s: float = 1e-3):
    n = int(rate_hz * span_s)
    return [(k / rate_hz, latency_s) for k in range(1, n + 1)]


class TestPhases:
    def test_three_phases_cover_run(self):
        fr = report(
            "crash:card=0,at=0.4,repair=0.2", steady(100.0, 1.0), span_s=1.0
        )
        names = [p.name for p in fr.phases]
        assert names == ["before", "during", "after"]
        before, during, after = fr.phases
        assert before.start_s == 0.0 and before.end_s == pytest.approx(0.4)
        assert during.end_s == pytest.approx(0.6)
        assert after.end_s == pytest.approx(1.0)
        assert sum(p.n_completed for p in fr.phases) == 100

    def test_permanent_fault_envelope_clamped_to_span(self):
        fr = report("crash:card=0,at=0.4", steady(100.0, 1.0), span_s=1.0)
        during = fr.phases[1]
        assert during.end_s == pytest.approx(1.0)
        assert fr.phases[2].n_completed == 0

    def test_steady_goodput_recovers_immediately(self):
        fr = report(
            "crash:card=0,at=0.4,repair=0.2",
            steady(100.0, 1.0),
            span_s=1.0,
            window_s=0.1,
        )
        assert fr.recovery_time_s == pytest.approx(0.0)

    def test_dip_then_recovery(self):
        # Completions stop during the outage and resume 0.2s after the
        # repair: recovery is the gap from repair to the sustained rate.
        comps = [(t, 1e-3) for t, _ in steady(100.0, 0.4)]
        comps += [(0.8 + k / 100.0, 1e-3) for k in range(1, 21)]
        fr = report(
            "crash:card=0,at=0.4,repair=0.2", comps, span_s=1.0, window_s=0.1
        )
        assert fr.recovery_time_s is not None
        assert fr.recovery_time_s > 0.0
        assert fr.recovery_time_s == pytest.approx(0.21, abs=0.02)

    def test_never_recovers(self):
        comps = [(t, 1e-3) for t, _ in steady(100.0, 0.4)]
        fr = report(
            "crash:card=0,at=0.4,repair=0.2", comps, span_s=1.0, window_s=0.1
        )
        assert fr.recovery_time_s is None

    def test_phase_p99_is_nearest_rank(self):
        # Ten completions at 1..10 ms: nearest-rank p99 is the slowest
        # one, where linear interpolation would give 9.91 ms.
        comps = [(k / 100.0, k * 1e-3) for k in range(1, 11)]
        fr = report("crash:card=0,at=0.5,repair=0.1", comps, span_s=1.0)
        assert fr.phases[0].p99_latency_ms == pytest.approx(10.0)


def nearest_rank_p99_ms(latencies: list[float]) -> float:
    """The phase p99 as the report computed it before it called NumPy."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = max(0, math.ceil(0.99 * len(ordered)) - 1)
    return ordered[rank] * 1e3


@st.composite
def latency_samples(draw) -> list[float]:
    """1-2,000 latencies: all distinct, ties from a small pool, or
    constant runs."""
    n = draw(st.integers(min_value=1, max_value=2_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.exponential(1e-3, size=draw(st.integers(1, 40)))
    style = draw(st.sampled_from(("distinct", "ties", "runs")))
    if style == "distinct":
        values = rng.exponential(1e-3, size=n)
    elif style == "ties":
        values = rng.choice(pool, size=n)
    else:
        values = np.resize(np.repeat(pool, rng.integers(1, 300, pool.size)), n)
    return values.tolist()


class TestP99Rule:
    @given(latencies=latency_samples())
    @example(latencies=[1e-3])
    @example(latencies=[2e-3] * 2_000)
    @example(latencies=[k * 1e-3 for k in range(1, 101)])
    @settings(max_examples=200, deadline=None)
    def test_p99_is_the_nearest_rank_loop(self, latencies):
        got, want = _p99_ms(latencies), nearest_rank_p99_ms(latencies)
        assert got == want, (
            "NumPy's percentile(..., method='inverted_cdf') no longer picks "
            f"the nearest-rank p99 of {len(latencies)} values: "
            f"{got!r} != {want!r}"
        )

    def test_empty_phase_reads_zero(self):
        assert _p99_ms([]) == 0.0

    @pytest.mark.parametrize(
        ("n", "rank"), [(1, 1), (99, 99), (100, 99), (101, 100), (200, 198)]
    )
    def test_p99_is_the_ceil_rank_order_statistic(self, n, rank):
        # Latencies 1..n ms, slowest first: the p99 is the
        # ceil(0.99 n)-th smallest, never an interpolation between two.
        latencies = [k * 1e-3 for k in range(n, 0, -1)]
        assert _p99_ms(latencies) == pytest.approx(rank, abs=1e-9)


class TestSerialisation:
    def test_to_dict_shape(self):
        fr = report(
            "crash:card=0,at=0.4,repair=0.2", steady(50.0, 1.0), span_s=1.0
        )
        d = fr.to_dict()
        assert d["spec"] == "crash:card=0,at=0.4,repair=0.2"
        assert d["seed"] == 5
        assert [p["name"] for p in d["phases"]] == ["before", "during", "after"]
        assert "duplicate_work_ratio" in d

    def test_infinite_phase_end_serialises_as_none(self):
        fr = report("crash:card=0,at=0.4", steady(50.0, 1.0), span_s=1.0)
        ends = [p["end_s"] for p in fr.to_dict()["phases"]]
        assert all(e is None or e <= 1.0 for e in ends)

    def test_counters_excluded_from_equality(self):
        a = report("crash:card=0,at=0.4,repair=0.2", steady(50.0, 1.0))
        b = report("crash:card=0,at=0.4,repair=0.2", steady(50.0, 1.0))
        b.counters.n_retries = 99
        assert a == b


class TestCounters:
    def test_duplicate_work_ratio(self):
        c = FaultCounters()
        assert c.duplicate_work_ratio == 0.0
        c.useful_work_s = 3.0
        c.wasted_work_s = 1.0
        assert c.duplicate_work_ratio == pytest.approx(0.25)
