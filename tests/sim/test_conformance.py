"""Timing-conformance suite: the :mod:`repro.sim` rebuild is pinned
**bit-identical** to the legacy per-silo clocks it replaced.

Each test carries a compact reference implementation of the pre-rebuild
arithmetic — scalar ``busy_until`` per card, a ``host_free`` scalar for
the serialised dispatch thread, direct ``kernel + pcie * factor`` sums —
and asserts exact float equality (``==``, no tolerances) against the
rebuilt layers across schedulers, card counts and traffic models.  The
recurrences are identical operation-for-operation, so any drift is a
real behaviour change, not rounding.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.api.cost import ClusterTimingRig, DispatchCostModel
from repro.cluster.batching import BatchQueue
from repro.cluster.cluster import CDSCluster, option_costs
from repro.cluster.interconnect import HostLinkModel
from repro.cluster.node import ClusterNode
from repro.cluster.scheduler import SCHEDULERS, make_scheduler, shard_scenarios
from repro.risk.engine import make_book
from repro.risk.sharding import simulate_grid_run
from repro.serving import QuoteServer, make_market_tape, make_request_stream
from repro.serving.coalescer import MicroBatchCoalescer
from repro.workloads.cluster import Arrival
from repro.workloads.scenarios import PaperScenario

# ---------------------------------------------------------------------------
# Rig level: the host_free / busy_until recurrence.
# ---------------------------------------------------------------------------
def test_rig_matches_legacy_host_free_recurrence():
    """A random dispatch sequence replayed through scalar state.

    Legacy serving kept one ``host_free`` float for the serialised host
    thread and one ``busy_until`` float per card; the rig spells the same
    recurrence as two chained reservations.  Every window must agree
    exactly.
    """
    gen = random.Random(3)
    cost = DispatchCostModel(
        invocation_seconds=1e-5,
        pcie_latency_s=2e-6,
        row_transfer_seconds=1e-7,
        cell_transfer_seconds=3e-8,
        cell_kernel_seconds=5e-7,
    )
    link = HostLinkModel()
    rig = ClusterTimingRig(cost, link, 3)
    host_free = 0.0
    busy = [0.0, 0.0, 0.0]
    t = 0.0
    for _ in range(300):
        t += gen.expovariate(2000.0)
        card = gen.randrange(3)
        n_rows = gen.randint(1, 8)
        n_cells = n_rows * gen.randint(1, 16)
        factor = link.contention_factor(gen.randint(1, 3))
        window = rig.dispatch(t, card, n_rows, n_cells, contention=factor)

        issued = max(t, host_free) + link.dispatch_seconds(1)
        host_free = issued
        start = max(issued, busy[card])
        done = start + cost.service_seconds(n_rows, n_cells, contention=factor)
        busy[card] = done
        assert window.start_s == start
        assert window.done_s == done
    assert rig.host.busy_until == host_free
    assert [c.busy_until for c in rig.cards] == busy


# ---------------------------------------------------------------------------
# Cluster dispatch.
# ---------------------------------------------------------------------------
def _legacy_cluster_timing(scenario, options, yc, hc, *, n_cards, n_engines,
                           policy, link):
    """Pre-rebuild ``CDSCluster.run`` timing: direct per-card sums."""
    scheduler = make_scheduler(policy)
    assignment = scheduler.partition(option_costs(options), n_cards)
    active = sum(1 for chunk in assignment if chunk)
    factor = link.contention_factor(active)
    seconds: dict[int, float] = {}
    for card_id, chunk in enumerate(assignment):
        if not chunk:
            continue
        node = ClusterNode(card_id, scenario, n_engines=n_engines)
        result = node.price([options[i] for i in chunk], yc, hc)
        kernel = scenario.clock.seconds(result.kernel_cycles)
        seconds[card_id] = kernel + result.pcie_seconds * factor
    dispatches = scheduler.dispatches(assignment)
    makespan = max(seconds.values()) + link.dispatch_seconds(dispatches)
    return makespan, seconds, dispatches


@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
@pytest.mark.parametrize("n_cards", [1, 3])
def test_cluster_timing_conformance(policy, n_cards):
    scenario = PaperScenario(n_rates=64, n_options=24)
    options = scenario.options()
    yc, hc = scenario.yield_curve(), scenario.hazard_curve()
    link = HostLinkModel()

    result = CDSCluster(
        scenario, n_cards=n_cards, n_engines=2, scheduler=policy, link=link
    ).run(options, yc, hc)
    makespan, seconds, dispatches = _legacy_cluster_timing(
        scenario, options, yc, hc,
        n_cards=n_cards, n_engines=2, policy=policy, link=link,
    )

    assert result.makespan_seconds == makespan
    assert result.dispatches == dispatches
    assert result.options_per_second == len(options) / makespan
    for card in result.cards:
        assert card.seconds == seconds.get(card.card_id, 0.0)
        assert card.utilisation == card.seconds / makespan


# ---------------------------------------------------------------------------
# Risk-shard grid replay.
# ---------------------------------------------------------------------------
def _legacy_grid_timing(assignment, options, yc, hc, *, scenario, n_engines,
                        link, queue):
    """Pre-rebuild ``simulate_grid_run`` timing: scalar busy per card."""
    active = sum(1 for chunk in assignment if chunk)
    factor = link.contention_factor(active)
    node = ClusterNode(0, scenario, n_engines=n_engines)
    result = node.price(options, yc, hc)
    batch_seconds = (
        scenario.clock.seconds(result.kernel_cycles)
        + result.pcie_seconds * factor
    )
    seconds: dict[int, float] = {}
    dispatches = 0
    token = options[0]
    for card_id, chunk in enumerate(assignment):
        if not chunk:
            continue
        dispatches += len(
            queue.coalesce([Arrival(time_s=0.0, options=[token] * len(chunk))])
        )
        seconds[card_id] = len(chunk) * batch_seconds
    makespan = max(seconds.values()) + link.dispatch_seconds(dispatches)
    return batch_seconds, makespan, seconds


@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
@pytest.mark.parametrize("n_scenarios,n_cards", [(17, 3), (64, 4)])
def test_risk_grid_timing_conformance(policy, n_scenarios, n_cards):
    scenario = PaperScenario(n_rates=64, n_options=12)
    options = scenario.options()
    yc, hc = scenario.yield_curve(), scenario.hazard_curve()
    link = HostLinkModel()
    queue = BatchQueue()
    assignment = shard_scenarios(n_scenarios, n_cards, policy)

    timing = simulate_grid_run(
        assignment, options, yc, hc,
        scenario=scenario, policy=policy, n_engines=2, link=link, queue=queue,
    )
    batch_seconds, makespan, seconds = _legacy_grid_timing(
        assignment, options, yc, hc,
        scenario=scenario, n_engines=2, link=link, queue=queue,
    )

    assert timing.batch_seconds == batch_seconds
    assert timing.makespan_seconds == makespan
    assert timing.scenarios_per_second == n_scenarios / makespan
    for shard in timing.cards:
        assert shard.seconds == seconds.get(shard.card_id, 0.0)
        assert shard.utilisation == shard.seconds / makespan


# ---------------------------------------------------------------------------
# Serving: the full event-driven serve loop.
# ---------------------------------------------------------------------------
N_POSITIONS = 12
N_STATES = 48
N_CARDS = 3


@pytest.fixture(scope="module")
def server():
    scenario = PaperScenario(n_rates=64, n_options=N_POSITIONS)
    tape = make_market_tape(
        scenario.yield_curve(), scenario.hazard_curve(), N_STATES, seed=3
    )
    return QuoteServer(
        make_book("heterogeneous", N_POSITIONS, seed=5),
        tape,
        scenario=scenario,
        n_cards=N_CARDS,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
        queue_depth=64,
    )


def _legacy_serve_timing(server, requests):
    """Pre-rebuild ``QuoteServer.serve``: the scalar-clock trace replay.

    Timing only — numerics are kernel outputs and never depended on the
    clock.  Returns per-request completion instants and card placements,
    per-card accounting, and the shed request ids, all computed with the
    legacy ``host_free`` / per-card ``busy_until`` floats.
    """
    trace = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    coalescer = MicroBatchCoalescer(server.queue)
    host_free = 0.0
    busy = [0.0] * server.n_cards
    busy_seconds = [0.0] * server.n_cards
    card_dispatches = [0] * server.n_cards
    in_flight: list[float] = []
    completions: dict[int, tuple[float, tuple[int, ...]]] = {}
    queue_shed_ids: list[int] = []
    n_batches = 0

    def run(batches):
        nonlocal host_free, n_batches
        for batch in batches:
            n_batches += 1
            rows = batch.rows
            wanted = {r: set() for r in rows}
            for req in batch.requests:
                for r in req.rows:
                    if req.kind == "quote" and wanted[r] is not None:
                        wanted[r].add(req.option_index)
                    elif req.kind != "quote":
                        wanted[r] = None
            weight = {
                r: server.n_positions if opts is None else len(opts)
                for r, opts in wanted.items()
            }
            assignment = server.scheduler.partition(
                [float(weight[r]) for r in rows], server.n_cards
            )
            active = sum(1 for chunk in assignment if chunk)
            factor = server.link.contention_factor(active)
            chunks = sorted(
                (chunk for chunk in assignment if chunk),
                key=lambda chunk: -sum(weight[rows[i]] for i in chunk),
            )
            by_busy = sorted(
                range(server.n_cards), key=lambda c: (busy[c], c)
            )
            row_done: dict[int, float] = {}
            row_card: dict[int, int] = {}
            for slot, chunk in enumerate(chunks):
                card = by_busy[slot]
                n_rows = len(chunk)
                n_cells = sum(weight[rows[i]] for i in chunk)
                issued = max(batch.formed_s, host_free) \
                    + server.link.dispatch_seconds(1)
                host_free = issued
                service = server.cost_model.service_seconds(
                    n_rows, n_cells, contention=factor
                )
                start = max(issued, busy[card])
                done = start + service
                busy[card] = done
                busy_seconds[card] += service
                card_dispatches[card] += 1
                for i in chunk:
                    row_done[rows[i]] = done
                    row_card[rows[i]] = card
            for req in batch.requests:
                completion = max(row_done[r] for r in req.rows)
                completions[req.request_id] = (
                    completion,
                    tuple(sorted({row_card[r] for r in req.rows})),
                )
                heapq.heappush(in_flight, completion)

    for req in trace:
        now = req.arrival_s
        run(coalescer.advance(now))
        while in_flight and in_flight[0] <= now:
            heapq.heappop(in_flight)
        coalescer.reap(now)
        if coalescer.n_pending + len(in_flight) >= server.queue_depth:
            queue_shed_ids.append(req.request_id)
            continue
        run(coalescer.offer(req))
    run(coalescer.flush())

    deadline_shed_ids = [s.request.request_id for s in coalescer.sheds]
    return (completions, busy_seconds, card_dispatches,
            queue_shed_ids, deadline_shed_ids, n_batches)


@pytest.mark.parametrize("traffic", ["poisson", "bursty", "diurnal"])
def test_serving_timing_conformance(server, traffic):
    requests = make_request_stream(
        400,
        rate_hz=3000.0,
        n_states=N_STATES,
        n_positions=N_POSITIONS,
        traffic=traffic,
        var_rows=6,
        seed=11,
    )
    result = server.serve(requests)
    (completions, busy_seconds, card_dispatches,
     queue_shed_ids, deadline_shed_ids, n_batches) = _legacy_serve_timing(
        server, requests
    )

    # The event loop must have exercised real contention, not a trivial
    # one-batch replay.
    assert result.n_dispatches > 5
    assert sum(1 for d in card_dispatches if d) > 1

    assert result.n_dispatches == n_batches
    assert len(result.responses) == len(completions)
    for resp in result.responses:
        completion, cards = completions[resp.request_id]
        assert resp.completion_s == completion
        assert resp.latency_s == completion - resp.arrival_s
        assert resp.cards == cards
    for card in result.cards:
        assert card.busy_seconds == busy_seconds[card.card_id]
        assert card.dispatches == card_dispatches[card.card_id]
    assert [s.request.request_id for s in result.sheds
            if s.reason == "queue_full"] == queue_shed_ids
    assert sorted(s.request.request_id for s in result.sheds
                  if s.reason == "deadline") == sorted(deadline_shed_ids)
