"""Deterministic work budgets on the simulator's host cost paths.

Host wall time on a shared machine swings too much to gate a speed-up;
a count of the expensive calls does not.  Each budget below is the work
one replay step may do, so an edit that puts the work back fails here
even though every simulated number would still match.

The engine network's cost is paid by the timing-only replay
(:meth:`~repro.cluster.node.ClusterNode.kernel_cycles`), once per timed
revalue and once per serving setup, and never by the token-level DES
(:meth:`~repro.dataflow.engine.Simulator.run`).

A replay's arrivals cost O(1) host bookkeeping each: they are the
simulation's arrival source, not heap events; the gateway's labelled
counters are bound once per replay; and a lane's tick does nothing
while nothing in it is due.

A quote server prices each market state of its tape once: the host
kernel prices the whole book for each distinct row a replay reads, in
no more calls than rows, however many requests read it.  A batch-1
replay pays for the kernel, not the wrappers: a one-row dispatch skips
the partitioner, and only building a risk engine prices a single market
state.

A gateway's replicas are lanes of one quote server, so however many
there are, one risk engine binds the book once.

The host kernel gathers and reduces payment slots, not the book's
padding: a chunk of several market states prices each contract in a
group no wider than its schedule rounded up to the bucket block, and a
one-state chunk prices the padded rows as a single group.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.telemetry.metrics
from repro.api import PricingBackend, VectorizedBackend
from repro.cluster.batching import BatchQueue
from repro.cluster.node import ClusterNode
from repro.core.vector_pricing import (
    BUCKET_COLUMNS,
    PackedPortfolio,
    price_packed_book,
    price_packed_many,
)
from repro.dataflow.engine import Simulator
from repro.gateway import (
    DEFAULT_TENANTS,
    Gateway,
    make_tenant_stream,
    make_tick_stream,
)
from repro.risk import ScenarioRiskEngine, make_book, monte_carlo
from repro.serving import QuoteServer, make_market_tape, make_request_stream
from repro.serving.coalescer import MicroBatchCoalescer
from repro.sim.events import EventQueue
from repro.telemetry import KernelProfiler
from repro.workloads.scenarios import PaperScenario

N_POSITIONS = 8
N_STATES = 12
N_TICKS = 10

#: ``repro`` Python calls per request of each small replay below (per
#: scenario for the timed revalue), as counted by :func:`_python_calls`.
#: The gateway's count was set when the per-arrival bookkeeping became
#: O(1) (from 52.2); the coalesced server's when each batch became one
#: direct kernel call (from 21.6); the batch-1 server's when the server
#: came to price each tape row once (from 73.0, and 89.2 before that);
#: the revalue's was first set when the risk engine came to bind its
#: backend directly (29.16 before).  The budget allows 10% on top.
CALLS_PER_OP = {
    "gateway": 31.6, "server": 20.7, "batch1": 51.9, "revalue": 29.1
}


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(n_rates=64, n_options=N_POSITIONS)


@pytest.fixture(scope="module")
def book():
    return make_book("heterogeneous", N_POSITIONS, seed=5)


@pytest.fixture(scope="module")
def tape(scenario):
    return make_market_tape(
        scenario.yield_curve(), scenario.hazard_curve(), N_STATES, seed=3
    )


def _counted(counts: dict, key: str, fn):
    """``fn``, adding one to ``counts[key]`` per call."""

    def call(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return call


@pytest.fixture
def calls(monkeypatch):
    """Count DES runs and timing-replay entries while the test runs."""
    counts = {"des_runs": 0, "timing_runs": 0}
    monkeypatch.setattr(
        Simulator, "run", _counted(counts, "des_runs", Simulator.run)
    )
    monkeypatch.setattr(
        ClusterNode,
        "kernel_cycles",
        _counted(counts, "timing_runs", ClusterNode.kernel_cycles),
    )
    return counts


def test_timed_revalue(scenario, book, calls):
    engine = ScenarioRiskEngine(book, scenario=scenario, n_cards=2, n_engines=2)
    shocks = monte_carlo(
        scenario.yield_curve(), scenario.hazard_curve(), 16, seed=11
    )
    calls.update(des_runs=0, timing_runs=0)
    result = engine.revalue(shocks)
    assert result.timing is not None
    assert calls == {"des_runs": 0, "timing_runs": 1}


def test_gateway_construction(scenario, book, tape, calls):
    Gateway(
        book,
        tape,
        scenario=scenario,
        n_servers=3,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
    )
    assert calls == {"des_runs": 0, "timing_runs": 1}


def test_quote_server_construction(scenario, book, tape, calls):
    QuoteServer(book, tape, scenario=scenario, n_cards=2, n_engines=2)
    assert calls == {"des_runs": 0, "timing_runs": 1}


def test_gateway_replicas_share_one_pricing_stack(
    scenario, book, tape, monkeypatch
):
    """Replicas are lanes of one server: one risk engine binds the book
    once, directly on its backend."""
    counts = {"engines": 0, "binds": 0}
    monkeypatch.setattr(
        ScenarioRiskEngine,
        "__init__",
        _counted(counts, "engines", ScenarioRiskEngine.__init__),
    )
    monkeypatch.setattr(
        PricingBackend, "bind", _counted(counts, "binds", PricingBackend.bind)
    )
    Gateway(
        book,
        tape,
        scenario=scenario,
        n_servers=3,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
    )
    assert counts == {"engines": 1, "binds": 1}


# ----------------------------------------------------------------------
# Per-arrival bookkeeping
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gateway(scenario, book, tape):
    return Gateway(
        book,
        tape,
        scenario=scenario,
        n_servers=2,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
        queue_depth=256,
        tenants=DEFAULT_TENANTS[:2],  # unlimited: no quota shed varies the keys
    )


@pytest.fixture(scope="module")
def server(scenario, book, tape):
    return QuoteServer(
        book,
        tape,
        scenario=scenario,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
        queue_depth=256,
    )


@pytest.fixture(scope="module")
def batch1_server(scenario, book, tape):
    return QuoteServer(
        book,
        tape,
        scenario=scenario,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=1, linger_s=0.0),
        queue_depth=256,
    )


def _tenant_trace(n: int):
    return make_tenant_stream(
        n, rate_hz=40_000.0, n_states=N_STATES, n_positions=N_POSITIONS,
        tenants=DEFAULT_TENANTS[:2], var_rows=4, seed=11,
    )


def _server_trace(n: int):
    return make_request_stream(
        n, rate_hz=20_000.0, n_states=N_STATES, n_positions=N_POSITIONS,
        var_rows=4, seed=11,
    )


@pytest.fixture(scope="module")
def ticks():
    return make_tick_stream(N_TICKS, rate_hz=2_000.0, n_states=N_STATES, seed=11)


@pytest.fixture(scope="module")
def replays(gateway, server, batch1_server, ticks):
    """Each small replay: its trace and a call that serves it."""
    tenant, plain = _tenant_trace(400), _server_trace(400)
    return {
        "gateway": (tenant, lambda: gateway.serve(tenant, ticks=ticks)),
        "server": (plain, lambda: server.serve(plain)),
        "batch1": (plain, lambda: batch1_server.serve(plain)),
    }


@pytest.fixture
def work(monkeypatch):
    """Count heap pushes, formatted metric keys and coalescer reaps."""
    counts = {"push": 0, "metric_key": 0, "reap": 0}
    monkeypatch.setattr(
        EventQueue, "push", _counted(counts, "push", EventQueue.push)
    )
    monkeypatch.setattr(
        repro.telemetry.metrics,
        "metric_key",
        _counted(counts, "metric_key", repro.telemetry.metrics.metric_key),
    )
    monkeypatch.setattr(
        MicroBatchCoalescer,
        "reap",
        _counted(counts, "reap", MicroBatchCoalescer.reap),
    )

    def measure(replay):
        counts.update(push=0, metric_key=0, reap=0)
        replay()
        return dict(counts)

    return measure


@pytest.mark.parametrize("name,pushes", [("gateway", N_TICKS), ("server", 0)])
def test_arrivals_are_no_heap_events(replays, work, name, pushes):
    """Only the ticks are heap events (no faults, so nothing retries)."""
    _, replay = replays[name]
    assert work(replay)["push"] == pushes


def test_gateway_metric_keys_do_not_grow_with_the_trace(gateway, ticks, work):
    short = work(lambda: gateway.serve(_tenant_trace(300), ticks=ticks))
    long = work(lambda: gateway.serve(_tenant_trace(600), ticks=ticks))
    assert long["metric_key"] == short["metric_key"]


@pytest.mark.parametrize("name", ["gateway", "server"])
def test_idle_lanes_skip_their_tick(replays, work, name):
    """Reaping once per lane per arrival would be at least one per arrival."""
    trace, replay = replays[name]
    assert work(replay)["reap"] < len(trace)


#: Frames of comprehensions and lambdas are not counted: Python 3.12
#: inlines comprehensions, so counting them would tie the budget to one
#: interpreter version.
_UNCOUNTED = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>", "<lambda>"}


def _python_calls(replay) -> int:
    """Python function calls into ``repro`` while ``replay()`` runs."""
    package = str(Path(repro.__file__).parent)
    n = 0

    def profile(frame, event, arg):
        nonlocal n
        if event == "call":
            code = frame.f_code
            if code.co_name not in _UNCOUNTED and code.co_filename.startswith(
                package
            ):
                n += 1

    sys.setprofile(profile)
    try:
        replay()
    finally:
        sys.setprofile(None)
    return n


@pytest.mark.parametrize("name", ["gateway", "server", "batch1"])
def test_python_calls_per_request(replays, name):
    trace, replay = replays[name]
    assert _python_calls(replay) / len(trace) <= 1.1 * CALLS_PER_OP[name]


def test_python_calls_per_scenario_of_a_timed_revalue(scenario, book):
    engine = ScenarioRiskEngine(
        book, scenario=scenario, n_cards=2, n_engines=2
    )
    shocks = monte_carlo(
        scenario.yield_curve(), scenario.hazard_curve(), 64, seed=11
    )
    calls = _python_calls(lambda: engine.revalue(shocks))
    assert calls / len(shocks) <= 1.1 * CALLS_PER_OP["revalue"]


# ----------------------------------------------------------------------
# Host pricing: once per market state
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["gateway", "batch1"])
def test_host_prices_each_distinct_row_once(
    scenario, book, tape, ticks, name
):
    """On a fresh server, kernel cells are the book times the distinct
    rows the trace reads, priced in at most that many calls."""
    if name == "gateway":
        trace, extra = _tenant_trace(400), {"ticks": ticks}
        system = Gateway(
            book, tape, scenario=scenario, n_servers=2, n_cards=2,
            n_engines=2, queue=BatchQueue(max_batch=16, linger_s=1e-3),
            queue_depth=256, tenants=DEFAULT_TENANTS[:2],
        )
    else:
        trace, extra = _server_trace(400), {}
        system = QuoteServer(
            book, tape, scenario=scenario, n_cards=2, n_engines=2,
            queue=BatchQueue(max_batch=1, linger_s=0.0), queue_depth=256,
        )
    with KernelProfiler() as profiler:
        system.serve(trace, **extra)
    rows = len({r for req in trace for r in req.rows})
    assert profiler.registry.get("kernel_cells_total").value == (
        N_POSITIONS * rows
    )
    assert profiler.registry.get("kernel_calls_total").value <= rows


# ----------------------------------------------------------------------
# Batch-1 quotes
# ----------------------------------------------------------------------


def test_batch1_partitions_only_multi_row_dispatches(
    batch1_server, monkeypatch
):
    """One row is one chunk under every policy: no partitioner needed."""
    sizes = []
    scheduler = type(batch1_server.scheduler)
    partition = scheduler.partition

    def counting(self, costs, n_cards):
        sizes.append(len(costs))
        return partition(self, costs, n_cards)

    monkeypatch.setattr(scheduler, "partition", counting)
    trace = _server_trace(400)
    batch1_server.serve(trace)
    multi_row = [req for req in trace if len(set(req.rows)) > 1]
    assert multi_row and len(sizes) == len(multi_row)
    assert min(sizes) > 1


def test_price_state_runs_only_when_an_engine_is_built(
    scenario, book, tape, monkeypatch
):
    """The base state's par spreads and PVs: two single-state calls per
    risk engine build, none in a batch-1 serve or a timed revalue."""
    counts = {"price_state": 0}
    monkeypatch.setattr(
        VectorizedBackend,
        "price_state",
        _counted(counts, "price_state", VectorizedBackend.price_state),
    )
    server = QuoteServer(
        book, tape, scenario=scenario, n_cards=2, n_engines=2,
        queue=BatchQueue(max_batch=1, linger_s=0.0), queue_depth=256,
    )
    assert counts["price_state"] == 2
    engine = ScenarioRiskEngine(
        book, scenario=scenario, n_cards=2, n_engines=2
    )
    assert counts["price_state"] == 4
    server.serve(_server_trace(400))
    assert counts["price_state"] == 4
    engine.revalue(
        monte_carlo(
            scenario.yield_curve(), scenario.hazard_curve(), 64, seed=11
        )
    )
    assert counts["price_state"] == 4


# ----------------------------------------------------------------------
# Host kernel: payment slots, not padding
# ----------------------------------------------------------------------
#: The benchmark books (seed 7): contracts, padded slots per market state
#: (contracts x longest schedule) and length-bucketed slots per state.
KERNEL_BOOKS = [(100, 11_400, 4_716), (32, 3_616, 1_457)]


@pytest.mark.parametrize("n_positions,padded,bucketed", KERNEL_BOOKS)
def test_kernel_slots_per_state(monkeypatch, n_positions, padded, bucketed):
    """Chunks of several states price the bucketed slots, one-state
    chunks and the single-state kernel the padded slots in one group."""
    chunks = []
    leg_layout = PackedPortfolio.leg_layout

    def recording(self, n_rows):
        layout = leg_layout(self, n_rows)
        slots = sum(group.accruals.size for group in layout.groups)
        chunks.append((n_rows, slots, len(layout.groups)))
        return layout

    monkeypatch.setattr(PackedPortfolio, "leg_layout", recording)
    sc = PaperScenario(n_options=n_positions)
    book = make_book("heterogeneous", n_positions, seed=7)
    packed = PackedPortfolio.pack(book.options)
    shocks = monte_carlo(sc.yield_curve(), sc.hazard_curve(), 9, seed=11)
    tensor = shocks.tensor
    price_packed_many(
        packed,
        tensor.yield_times,
        tensor.yield_values,
        tensor.hazard_times,
        tensor.hazard_values,
        chunk_size=4,
    )
    price_packed_book(packed, sc.yield_curve(), sc.hazard_curve())
    # 9 states in chunks of 4, 4 and 1, then one single-state call.
    assert chunks == [
        (4, bucketed, 4), (4, bucketed, 4), (1, padded, 1), (1, padded, 1)
    ]


@pytest.mark.parametrize("n_positions", [n for n, *_ in KERNEL_BOOKS])
def test_bucket_widths(n_positions):
    """Each group is narrower than each of its contracts' schedules plus
    one block, or as wide as the book."""
    packed = PackedPortfolio.pack(
        make_book("heterogeneous", n_positions, seed=7).options
    )
    layout = packed.leg_layout(2)
    lengths = (packed.last_idx + 1)[np.argsort(layout.order)]
    for group in layout.groups:
        width = group.accruals.shape[1]
        members = lengths[group.contracts]
        assert members.max() <= width
        assert width == packed.max_len or (
            width < members + BUCKET_COLUMNS
        ).all()
