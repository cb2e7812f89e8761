"""Property tests for the serving layer.

The load-bearing invariant: micro-batching is *purely* a
throughput/latency knob.  However requests are coalesced, routed and
chunked, every response value must be bit-identical to pricing that
request alone — the serving counterpart of the risk subsystem's
batch == loop pin.  The server answers from its table of the tape, so
the same pin, over generated traces replayed one after another on one
server, keeps the table equal to the direct path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cluster.batching import BatchQueue
from repro.core.vector_pricing import InvalidAnnuityError
from repro.errors import ValidationError
from repro.risk.engine import make_book
from repro.serving import (
    PricingRequest,
    QuoteServer,
    make_market_tape,
    make_request_stream,
)
from repro.workloads.scenarios import PaperScenario

N_POSITIONS = 10
N_STATES = 32


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(n_rates=64, n_options=N_POSITIONS)


@pytest.fixture(scope="module")
def tape(scenario):
    return make_market_tape(
        scenario.yield_curve(), scenario.hazard_curve(), N_STATES, seed=9
    )


@pytest.fixture(scope="module")
def stream():
    return make_request_stream(
        400,
        rate_hz=3000.0,
        n_states=N_STATES,
        n_positions=N_POSITIONS,
        var_rows=5,
        seed=29,
    )


def _server(scenario, tape, **kw) -> QuoteServer:
    kw.setdefault("n_cards", 2)
    kw.setdefault("n_engines", 2)
    return QuoteServer(
        make_book("heterogeneous", N_POSITIONS, seed=5),
        tape,
        scenario=scenario,
        **kw,
    )


def _values(result) -> dict[int, float]:
    return {r.request_id: r.value for r in result.responses}


class TestBatchedBitIdentity:
    def test_batched_equals_individual(self, scenario, tape, stream):
        """Every coalesced response == the one-request-per-kernel-call
        answer, bit for bit."""
        server = _server(
            scenario, tape, queue=BatchQueue(max_batch=32, linger_s=2e-3)
        )
        res = server.serve(stream)
        answered = [r for r in stream if r.request_id in _values(res)]
        individual = server.price_individually(answered)
        batched = _values(res)
        assert len(answered) == len(stream)  # nothing shed at this load
        for req, value in zip(answered, individual):
            assert batched[req.request_id] == value, req

    def test_coalescing_policy_never_changes_values(
        self, scenario, tape, stream
    ):
        """max_batch / linger / chunk_size only move latency, not numbers."""
        policies = [
            dict(queue=BatchQueue(max_batch=1, linger_s=0.0)),
            dict(queue=BatchQueue(max_batch=8, linger_s=1e-3)),
            dict(queue=BatchQueue(max_batch=128, linger_s=5e-3), chunk_size=3),
        ]
        seen = None
        for kw in policies:
            res = _server(scenario, tape, **kw).serve(stream)
            values = _values(res)
            if seen is None:
                seen = values
            else:
                assert values == seen

    def test_card_count_and_scheduler_never_change_values(
        self, scenario, tape, stream
    ):
        seen = None
        for n_cards, policy in [(1, "round-robin"), (3, "least-loaded"),
                                (4, "work-stealing")]:
            res = _server(
                scenario, tape, n_cards=n_cards, scheduler=policy
            ).serve(stream)
            values = _values(res)
            if seen is None:
                seen = values
            else:
                assert values == seen


class TestTimingSanity:
    def test_coalescing_reduces_dispatches(self, scenario, tape, stream):
        one = _server(scenario, tape, queue=BatchQueue(max_batch=1, linger_s=0.0))
        many = _server(
            scenario, tape, queue=BatchQueue(max_batch=64, linger_s=2e-3)
        )
        r1 = one.serve(stream)
        rn = many.serve(stream)
        assert rn.n_dispatches < r1.n_dispatches
        assert rn.mean_batch_requests > 2.0

    def test_responses_respect_simulated_causality(self, scenario, tape, stream):
        res = _server(scenario, tape).serve(stream)
        by_id = {r.request_id: r for r in stream}
        for resp in res.responses:
            req = by_id[resp.request_id]
            assert resp.formed_s >= req.arrival_s
            # A linger timer can fire no later than arrival + linger.
            assert resp.formed_s <= req.arrival_s + 1e-3 + 1e-12

    def test_card_busy_windows_disjoint(self, scenario, tape, stream):
        """Total busy time per card never exceeds the span (no card is
        double-booked by overlapping dispatches)."""
        res = _server(scenario, tape).serve(stream)
        for card in res.cards:
            assert card.busy_seconds <= res.span_seconds * (1 + 1e-9)


class TestVarReduction:
    def test_var_value_depends_only_on_own_rows(self, scenario, tape):
        from repro.serving.request import PricingRequest

        va = PricingRequest(0, "var", 0.0, 1.0, rows=(1, 4, 9, 13, 21))
        noise = [
            PricingRequest(i, "quote", 0.0, 1.0, rows=(i % N_STATES,),
                           option_index=i % N_POSITIONS)
            for i in range(1, 40)
        ]
        server = _server(
            scenario, tape, queue=BatchQueue(max_batch=64, linger_s=1e-3)
        )
        alone = server.serve([va])
        crowded = server.serve([va] + noise)
        v_alone = [r.value for r in alone.responses if r.request_id == 0][0]
        v_crowd = [r.value for r in crowded.responses if r.request_id == 0][0]
        assert v_alone == v_crowd
        assert np.isfinite(v_alone)


#: Generated traces read these tape rows only, so rows repeat.
TRACE_ROWS = 8


@st.composite
def traces(draw) -> list[PricingRequest]:
    """Quotes, revals and VaRs over a few rows, some arriving together."""
    rows = st.integers(0, TRACE_ROWS - 1)
    trace = []
    t = 0.0
    for i in range(draw(st.integers(1, 24))):
        t += draw(st.sampled_from([0.0, 2e-4, 1.5e-3]))
        kind = draw(st.sampled_from(["quote", "reval", "var"]))
        if kind == "quote":
            req = PricingRequest(
                i, kind, t, t + 1.0, rows=(draw(rows),),
                option_index=draw(st.integers(0, N_POSITIONS - 1)),
            )
        elif kind == "reval":
            req = PricingRequest(i, kind, t, t + 1.0, rows=(draw(rows),))
        else:
            var_rows = draw(st.lists(rows, min_size=1, max_size=4))
            req = PricingRequest(i, kind, t, t + 1.0, rows=tuple(var_rows))
        trace.append(req)
    return trace


queues = st.builds(
    BatchQueue,
    max_batch=st.integers(1, 16),
    linger_s=st.sampled_from([0.0, 1e-3]),
)


def _cells(req: PricingRequest) -> set[tuple[int, int]]:
    """The (row, book index) cells a request reads."""
    if req.kind == "quote":
        return {(req.rows[0], req.option_index)}
    return {(r, k) for r in req.rows for k in range(N_POSITIONS)}


class TestTableEqualsDirectPath:
    @given(first=traces(), second=traces(), queue=queues)
    @settings(max_examples=30, deadline=None)
    def test_replays_on_one_server_equal_pricing_alone(
        self, scenario, tape, first, second, queue
    ):
        """The second replay reads what the first put in the table."""
        server = _server(scenario, tape, queue=queue)
        for trace in (first, second):
            result = server.serve(trace)
            assert result.n_completed == len(trace)
            assert _values(result) == dict(
                zip(
                    (req.request_id for req in trace),
                    server.price_individually(trace),
                )
            )

    @given(
        trace=traces(),
        queue=queues,
        row=st.integers(0, TRACE_ROWS - 1),
        knot=st.integers(0, 63),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_bad_cell_fails_only_the_batch_that_reads_it(
        self, scenario, tape, trace, queue, row, knot
    ):
        hazard = tape.hazard_values.copy()
        hazard[row, knot] = np.nan
        bad_tape = replace(tape, hazard_values=hazard)
        clean = _server(scenario, tape, queue=queue)
        bad = _server(scenario, bad_tape, queue=queue)
        messages = {}
        try:
            bad.engine.quote_rows(bad_tape, [row])
        except InvalidAnnuityError as err:
            messages = {
                (row, k): text for (_, k), text in err.cell_messages()
            }

        # The clean replay forms the same batches, values aside.
        served = clean.serve(trace)
        assert served.n_completed == len(trace)
        want = _values(served)
        by_id = {req.request_id: req for req in trace}
        batches = defaultdict(set)
        for resp in served.responses:
            batches[resp.batch_id] |= _cells(by_id[resp.request_id])
        failing = [
            cells & messages.keys()
            for _, cells in sorted(batches.items())
            if cells & messages.keys()
        ]
        event("a batch reads a bad cell" if failing else "no bad cell read")
        if failing:
            with pytest.raises(ValidationError) as err:
                bad.serve(trace)
            assert str(err.value) == messages[min(failing[0])]
        else:
            assert _values(bad.serve(trace)) == want

        # The table kept what the failed replay priced; requests that
        # read only valid cells still get the clean tape's values.
        ok = [req for req in trace if not _cells(req) & messages.keys()]
        if ok:
            assert _values(bad.serve(ok)) == {
                req.request_id: want[req.request_id] for req in ok
            }
