"""Benchmark: the gateway's quote cache versus raw fan-out at 10x load.

The gateway's reason to exist: at 600k req/s offered — ten times the
serving benchmark's 60k — no affordable card pool can reprice every
quote individually, but most quotes ask the same question (same market
state, same option) within a tick window.  The market-state-keyed cache
answers repeats in microseconds and single-flights concurrent misses,
so the cards only see the distinct working set.

The run replays an identical 16k-request multi-tenant trace (Zipf row
and option skew, three tenant tiers, a live tick stream invalidating
cached rows) through the same two-server gateway twice — cache on and
cache off — and compares **goodput**.  Because cached replies replay
the exact `(kind, rows, option)` value the kernels produced, the cache
moves timing and never numbers: every request id completed by both runs
carries a bit-identical value.  Acceptance floors: cache hit rate above
0.5 and a 5x goodput ratio.  The study itself (parameters, run and
snapshot) lives in :data:`repro.monitor.regress.STUDIES`, shared with
``repro-cds bench-check``; its snapshot must equal the committed
``BENCH_gateway.json`` exactly.

Everything asserted here is *simulated* time, so the benchmark is
deterministic; host wall-clock is neither asserted nor recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.monitor.regress import STUDIES

STUDY = STUDIES["gateway"]
COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_gateway.json"
HIT_RATE_FLOOR = 0.5
GOODPUT_RATIO_FLOOR = 5.0


@pytest.fixture(scope="module")
def measured():
    return STUDY.run(STUDY.params)


def test_cached_values_bit_identical(measured):
    """The cache moves timing, never numbers."""
    on, off = measured
    a = {r.request_id: r.value for r in on.responses}
    b = {r.request_id: r.value for r in off.responses}
    common = set(a) & set(b)
    assert len(common) > STUDY.params["n_requests"] // 4
    assert all(a[i] == b[i] for i in common)


def test_cache_economics(measured):
    """Hit rate > 0.5 and >= 5x goodput at 600k req/s offered."""
    on, off = measured
    ratio = on.goodput_rps / max(off.goodput_rps, 1e-9)
    p = STUDY.params
    print(f"\nGateway goodput at {p['rate_hz']:,.0f} req/s offered "
          f"({p['n_requests']} requests, {p['n_servers']}x{p['n_cards']} cards):")
    print(f"  cache off: {off.goodput_rps:10,.0f} req/s goodput, "
          f"p99 {off.latency.p99_s * 1e3:7.2f} ms, "
          f"shed {off.shed_rate:.1%}")
    print(f"  cache on : {on.goodput_rps:10,.0f} req/s goodput, "
          f"p99 {on.latency.p99_s * 1e3:7.2f} ms, "
          f"shed {on.shed_rate:.1%} "
          f"(hit {on.cache_hit_rate:.1%}, dedup {on.cache_dedup_rate:.1%})")
    print(f"  ratio    : {ratio:.1f}x")
    assert on.cache_hit_rate > HIT_RATE_FLOOR
    assert ratio >= GOODPUT_RATIO_FLOOR


def test_snapshot_is_the_committed_file(measured):
    """Simulated time is deterministic in the seed: the snapshot
    reproduces the committed BENCH_gateway.json exactly."""
    assert STUDY.snapshot(STUDY.params, measured) == json.loads(
        COMMITTED.read_text()
    )


def test_cache_keeps_tail_latency_bounded(measured):
    """Hits answer in microseconds; the cached tail beats the uncached
    tail even while completing far more work."""
    on, off = measured
    assert on.latency.p50_s < off.latency.p50_s
    assert on.n_deadline_met > off.n_deadline_met
