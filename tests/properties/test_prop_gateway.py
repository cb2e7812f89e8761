"""Property tests for the multi-tenant gateway.

The load-bearing invariant: the quote cache (hits *and* single-flight
joins) is purely a latency/capacity knob.  For any seed and any tenant
mix, every request id answered by both a cache-on and a cache-off
replay of the same trace must carry a bit-identical value — cached
replies replay the exact ``(kind, rows, option)`` number the kernels
produced, never a recomputation.  Alongside it: conservation (every
offered request is completed, shed or failed, per tenant and in
aggregate) across the same sweep.

A generated sweep also pins the per-arrival shortcuts to the loop they
replaced: a lane's tick returns early while nothing in it is due, and
the cache sweep skips lanes with no new outcomes.  With both forced off
every lane ticks and is swept on every arrival, and every outcome and
the telemetry snapshot must stay equal; no outcome may precede its
request's arrival.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.batching import BatchQueue
from repro.faults import FaultPlan
from repro.gateway import (
    DEFAULT_TENANTS,
    Gateway,
    PASSTHROUGH_TENANT,
    TenantProfile,
    make_tenant_stream,
    make_tick_stream,
)
from repro.risk.engine import make_book
from repro.serving import make_market_tape
from repro.serving.coalescer import MicroBatchCoalescer
from repro.telemetry import Telemetry
from repro.workloads.scenarios import PaperScenario

N_POSITIONS = 10
N_STATES = 32

SEEDS = (3, 11, 29)
MIXES = (
    ("all-tiers", DEFAULT_TENANTS, (0.5, 0.3, 0.2)),
    ("gold-heavy", DEFAULT_TENANTS[:2], (0.9, 0.1)),
    ("single", (PASSTHROUGH_TENANT,), (1.0,)),
)


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(n_rates=64, n_options=N_POSITIONS)


@pytest.fixture(scope="module")
def book():
    return make_book("heterogeneous", N_POSITIONS, seed=5)


@pytest.fixture(scope="module")
def tape(scenario):
    return make_market_tape(
        scenario.yield_curve(), scenario.hazard_curve(), N_STATES, seed=9
    )


def _gateway(book, tape, scenario, tenants, *, cache):
    return Gateway(
        book,
        tape,
        scenario=scenario,
        n_servers=2,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
        queue_depth=256,
        tenants=tenants,
        cache=cache,
    )


def _replay(book, tape, scenario, tenants, seed, *, cache, shares):
    stream = make_tenant_stream(
        500,
        rate_hz=30000.0,
        n_states=N_STATES,
        n_positions=N_POSITIONS,
        tenants=tenants,
        mix=(0.9, 0.08, 0.02),
        var_rows=5,
        seed=seed,
    )
    ticks = make_tick_stream(20, rate_hz=1500.0, n_states=N_STATES, seed=seed)
    gw = _gateway(book, tape, scenario, tenants, cache=cache)
    return gw.serve(stream, ticks=ticks)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,tenants,shares", MIXES, ids=[m[0] for m in MIXES])
class TestCacheBitIdentity:
    def test_cached_values_identical_to_uncached(
        self, book, tape, scenario, name, tenants, shares, seed
    ):
        on = _replay(
            book, tape, scenario, tenants, seed, cache=True, shares=shares
        )
        off = _replay(
            book, tape, scenario, tenants, seed, cache=False, shares=shares
        )
        a = {r.request_id: r.value for r in on.responses}
        b = {r.request_id: r.value for r in off.responses}
        common = set(a) & set(b)
        assert common, "no overlapping completions to compare"
        mismatched = [i for i in common if a[i] != b[i]]
        assert mismatched == []

    def test_conservation_per_tenant_and_aggregate(
        self, book, tape, scenario, name, tenants, shares, seed
    ):
        res = _replay(
            book, tape, scenario, tenants, seed, cache=True, shares=shares
        )
        assert res.n_offered == res.n_completed + res.n_shed + res.n_failed
        for t in res.tenants:
            assert t.n_offered == t.n_completed + t.n_shed + t.n_failed
        assert sum(t.n_offered for t in res.tenants) == res.n_offered
        assert sum(t.n_completed for t in res.tenants) == res.n_completed

    def test_deterministic_replay(
        self, book, tape, scenario, name, tenants, shares, seed
    ):
        first = _replay(
            book, tape, scenario, tenants, seed, cache=True, shares=shares
        )
        second = _replay(
            book, tape, scenario, tenants, seed, cache=True, shares=shares
        )
        assert first == second


#: A quota-bound tenant beside an unlimited one, so quota sheds occur.
QUOTA_TENANTS = (
    TenantProfile(name="gold", tier="gold", priority_boost=2, share=0.6),
    TenantProfile(
        name="tight", tier="bronze", quota_rps=4_000.0, burst=2.0,
        deadline_scale=1.5, share=0.4,
    ),
)

#: Fault plans for one lane (each server has two cards).
LANE_PLANS = (
    "",
    "crash:card=0,at=0.002,repair=0.004",
    "slow:card=1,at=0.0,for=0.02,factor=40;crash:card=1,at=0.003,repair=0.003",
    "correlated:cards=0+1,at=0.002",
    "linkout:at=0.002,for=0.003",
)


@st.composite
def gateway_cases(draw) -> dict:
    """A gateway shape, a trace with ticks and a plan on one lane."""
    n_servers = draw(st.integers(min_value=1, max_value=3))
    return {
        "n_servers": n_servers,
        "cache": draw(st.booleans()),
        "max_batch": draw(st.sampled_from([1, 4, 16])),
        "linger_s": draw(st.sampled_from([0.0, 5e-4, 5e-3])),
        "queue_depth": draw(st.sampled_from([4, 16, 256])),
        "rate_hz": draw(st.sampled_from([5e3, 3e4, 1.2e5])),
        "quote_deadline_s": draw(st.sampled_from([(5e-3, 2e-2), (2e-4, 2e-3)])),
        # A hot key space: repeated keys join leaders that may be shed.
        "keys": draw(st.sampled_from([(N_STATES, N_POSITIONS), (4, 2)])),
        "n_ticks": draw(st.integers(min_value=0, max_value=15)),
        "plan": draw(st.sampled_from(LANE_PLANS)),
        "fault_server": draw(st.integers(min_value=0, max_value=n_servers - 1)),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


class _Unequal(int):
    """A shed count no cursor equals: the sweep visits the lane anyway."""

    def __eq__(self, other) -> bool:
        return False

    __hash__ = int.__hash__


def _case_replay(book, tape, scenario, case):
    telemetry = Telemetry.recording()
    gw = Gateway(
        book,
        tape,
        scenario=scenario,
        n_servers=case["n_servers"],
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=case["max_batch"], linger_s=case["linger_s"]),
        queue_depth=case["queue_depth"],
        tenants=QUOTA_TENANTS,
        cache=case["cache"],
        telemetry=telemetry,
    )
    stream = make_tenant_stream(
        240,
        rate_hz=case["rate_hz"],
        n_states=case["keys"][0],
        n_positions=case["keys"][1],
        tenants=QUOTA_TENANTS,
        mix=(0.9, 0.08, 0.02),
        var_rows=5,
        quote_deadline_s=case["quote_deadline_s"],
        seed=case["seed"],
    )
    ticks = make_tick_stream(
        case["n_ticks"], rate_hz=2_000.0, n_states=N_STATES, seed=case["seed"]
    )
    result = gw.serve(
        stream,
        ticks=ticks,
        faults=FaultPlan.from_spec(case["plan"], seed=case["seed"]),
        fault_server=case["fault_server"],
    )
    return {
        "result": result,
        "responses": result.responses,
        "sheds": result.sheds,
        "fails": result.fails,
        "metrics": telemetry.metrics.snapshot(),
        "spans": telemetry.spans,
    }


#: Always-run cases: leaders on a hot key expiring while they linger
#: (their joiners go with them, the next arrival leads afresh), and a
#: 3-server tier under backpressure, ticks and a dead lane.
PINNED_CASES = (
    dict(n_servers=1, cache=True, max_batch=16, linger_s=5e-3,
         queue_depth=256, rate_hz=5e3, quote_deadline_s=(2e-4, 2e-3),
         keys=(4, 2), n_ticks=0, plan="", fault_server=0, seed=3),
    dict(n_servers=3, cache=True, max_batch=4, linger_s=5e-4,
         queue_depth=4, rate_hz=1.2e5, quote_deadline_s=(5e-3, 2e-2),
         keys=(N_STATES, N_POSITIONS), n_ticks=15,
         plan="correlated:cards=0+1,at=0.002", fault_server=2, seed=5),
)


class TestPerArrivalShortcuts:
    @given(case=gateway_cases())
    @example(case=PINNED_CASES[0])
    @example(case=PINNED_CASES[1])
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_equal_to_ticking_and_sweeping_every_lane(
        self, book, tape, scenario, case
    ):
        fast = _case_replay(book, tape, scenario, case)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                MicroBatchCoalescer, "next_due_s", property(lambda c: -math.inf)
            )
            mp.setattr(
                MicroBatchCoalescer,
                "n_sheds",
                property(lambda c: _Unequal(len(c.sheds_since(0)))),
            )
            every_lane = _case_replay(book, tape, scenario, case)
        assert fast == every_lane
        # Causality: no outcome lands before its request arrived (a
        # request joining a leader that was already shed would).
        result = fast["result"]
        assert all(r.completion_s >= r.arrival_s for r in result.responses)
        assert all(s.time_s >= s.request.arrival_s for s in result.sheds)
        assert all(f.time_s >= f.request.arrival_s for f in result.fails)
