"""Benchmark: coalesced micro-batching versus batch-size-1 dispatch.

The serving layer's reason to exist: every dispatch pays a fixed
overhead (kernel invocation + PCIe setup + host scheduling), so pricing
requests one at a time caps a card's request rate at roughly
``1 / overhead`` regardless of how small the requests are.  Coalescing
amortises that overhead across a micro-batch — the same economics the
paper exploits by streaming whole option batches through one kernel
invocation, applied to live traffic.

The run replays an identical 12k-request trace (same offered load, same
seed) through the quote server twice — coalesced (size-or-linger) and
batch-size-1 — and compares **goodput**: responses that met their
deadline, per second.  Under overload the batch-1 server queues, misses
deadlines and sheds; the coalesced server keeps up.  The acceptance
floor is a 3x goodput ratio.  The study itself (parameters, run and
snapshot) lives in :data:`repro.monitor.regress.STUDIES`, shared with
``repro-cds bench-check``; its snapshot must equal the committed
``BENCH_serving.json`` exactly.

Everything asserted here is *simulated* time, so the benchmark is
deterministic; host wall-clock is neither asserted nor recorded.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.monitor.regress import STUDIES

STUDY = STUDIES["serving"]
COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_serving.json"
GOODPUT_RATIO_FLOOR = 3.0


@pytest.fixture(scope="module")
def measured():
    return STUDY.run(STUDY.params)


def test_identical_values_where_both_completed(measured):
    """Coalescing moves timing, never numbers."""
    coalesced, batch1 = measured
    a = {r.request_id: r.value for r in coalesced.responses}
    b = {r.request_id: r.value for r in batch1.responses}
    common = set(a) & set(b)
    assert len(common) > STUDY.params["n_requests"] // 2
    assert all(a[i] == b[i] for i in common)


def test_goodput_ratio(measured):
    """>= 3x goodput at the same offered load."""
    coalesced, batch1 = measured
    ratio = coalesced.goodput_rps / max(batch1.goodput_rps, 1e-9)
    p = STUDY.params
    print(f"\nServing goodput at {p['rate_hz']:,.0f} req/s offered "
          f"({p['n_requests']} requests, {p['n_cards']} cards):")
    print(f"  batch-1  : {batch1.goodput_rps:10,.0f} req/s goodput, "
          f"p99 {batch1.latency.p99_s * 1e3:7.2f} ms, "
          f"shed {batch1.shed_rate:.1%}")
    print(f"  coalesced: {coalesced.goodput_rps:10,.0f} req/s goodput, "
          f"p99 {coalesced.latency.p99_s * 1e3:7.2f} ms, "
          f"shed {coalesced.shed_rate:.1%} "
          f"(mean batch {coalesced.mean_batch_requests:.1f})")
    print(f"  ratio    : {ratio:.1f}x")
    assert ratio >= GOODPUT_RATIO_FLOOR


def test_snapshot_is_the_committed_file(measured):
    """Simulated time is deterministic in the seed: the snapshot
    reproduces the committed BENCH_serving.json exactly."""
    assert STUDY.snapshot(STUDY.params, measured) == json.loads(
        COMMITTED.read_text()
    )


def test_coalesced_keeps_latency_bounded(measured):
    """The linger bound shows up in the tail: coalesced p99 stays within
    a few linger windows; batch-1 queues unboundedly under overload."""
    coalesced, batch1 = measured
    assert coalesced.latency.p99_s < 10e-3
    assert batch1.latency.p99_s > coalesced.latency.p99_s
