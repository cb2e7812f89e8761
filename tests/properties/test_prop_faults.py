"""Property tests for fault injection: conservation and identity.

Two load-bearing invariants across schedulers × fault plans:

* **Conservation** — every admitted unit of work finalises exactly once:
  serving pins ``offered == completed + shed + failed`` and the risk
  grid pins ``scenarios == completed + failed``, no matter how often the
  rows or chunks were re-dispatched.
* **Zero-fault identity** — ``faults=None`` is the empty plan, so both
  replay byte-for-byte the same: resilience machinery costs nothing when
  it is not in play.

The serving invariants run over *generated* inputs: Hypothesis draws
the fault-plan spec, the scheduler, the card count, the batch/linger
policy and the queue depth (derandomised, so tier-1 stays
deterministic).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.batching import BatchQueue
from repro.cluster.scheduler import shard_scenarios
from repro.faults import FaultPlan
from repro.risk.engine import make_book
from repro.risk.sharding import FaultedClusterTiming, simulate_grid_run
from repro.serving import QuoteServer, make_market_tape, make_request_stream
from repro.workloads.scenarios import PaperScenario

N_POSITIONS = 10
N_STATES = 32

SCHEDULERS = ["round-robin", "least-loaded", "work-stealing"]

#: Grid plans on the risk-sharding timescale (batch quanta of ~ms).
GRID_PLANS = [
    "crash:card=1,at=0.0005,repair=0.0005",
    "crash:card=2,at=0.0003",
    "slow:card=0,at=0.0,for=0.002,factor=4",
    "correlated:cards=1+2,at=0.0004,repair=0.0006",
]


@pytest.fixture(scope="module")
def scenario():
    return PaperScenario(n_rates=64, n_options=N_POSITIONS)


@pytest.fixture(scope="module")
def tape(scenario):
    return make_market_tape(
        scenario.yield_curve(), scenario.hazard_curve(), N_STATES, seed=9
    )


@pytest.fixture(scope="module")
def book():
    return make_book("heterogeneous", N_POSITIONS, seed=5)


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


def _server(scenario, tape, book, scheduler: str, *, n_cards: int = 2,
            max_batch: int = 16, linger_s: float = 1e-3,
            queue_depth: int = 256) -> QuoteServer:
    return QuoteServer(
        book,
        tape,
        scenario=scenario,
        n_cards=n_cards,
        n_engines=2,
        scheduler=scheduler,
        queue=BatchQueue(max_batch=max_batch, linger_s=linger_s),
        queue_depth=queue_depth,
    )


#: A crash buried under a straggler: service windows on card 1 stretch
#: 80x, so the crash lands mid-window and forces retries.
OVERLAP = "slow:card=1,at=0.005,for=0.06,factor=80;crash:card=1,at=0.03,repair=0.03"

# Fault instants and windows on the ~0.13 s span of the 400-request
# stream at 3000 req/s.
_at = st.sampled_from([0.0, 0.001, 0.01, 0.03, 0.05, 0.1])
_span = st.sampled_from([0.002, 0.02, 0.05, 0.2])
_repair = st.one_of(st.none(), _span)


def _repair_spec(repair) -> str:
    return "" if repair is None else f",repair={repair:g}"


@st.composite
def fault_specs(draw, n_cards: int) -> str:
    """A ``--faults`` spec of up to three events on ``n_cards`` cards."""
    card = st.integers(min_value=0, max_value=n_cards - 1)
    event = st.one_of(
        st.builds(
            lambda c, t, r: f"crash:card={c},at={t:g}{_repair_spec(r)}",
            card, _at, _repair,
        ),
        st.builds(
            lambda c, t, d, f: f"slow:card={c},at={t:g},for={d:g},factor={f:g}",
            card, _at, _span, st.sampled_from([2, 6, 80]),
        ),
        st.builds(
            lambda t, d, f: f"link:at={t:g},for={d:g},factor={f:g}",
            _at, _span, st.sampled_from([1.5, 4]),
        ),
        st.builds(lambda t, d: f"linkout:at={t:g},for={d:g}", _at, _span),
        st.builds(
            lambda cs, t, r: "correlated:cards="
            + "+".join(str(c) for c in sorted(cs))
            + f",at={t:g}{_repair_spec(r)}",
            st.sets(card, min_size=1), _at, _repair,
        ),
    )
    return ";".join(draw(st.lists(event, max_size=3)))


@st.composite
def serve_cases(draw) -> tuple[dict, str]:
    """A server shape (``_server`` keywords) plus a plan that fits it."""
    n_cards = draw(st.integers(min_value=1, max_value=4))
    shape = {
        "scheduler": draw(st.sampled_from(SCHEDULERS)),
        "n_cards": n_cards,
        "max_batch": draw(st.sampled_from([1, 4, 16, 64])),
        "linger_s": draw(st.sampled_from([0.0, 5e-4, 2e-3])),
        "queue_depth": draw(st.sampled_from([8, 64, 512])),
    }
    return shape, draw(fault_specs(n_cards))


@pytest.fixture(scope="module")
def reference(scenario, tape, book, stream) -> dict[int, float]:
    """Every request priced alone: what any replay must answer."""
    srv = _server(scenario, tape, book, "least-loaded")
    values = srv.price_individually(stream)
    return {req.request_id: v for req, v in zip(stream, values)}


class TestServingConservation:
    @given(case=serve_cases())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_generated_replays_conserve_and_price_exactly(
        self, scenario, tape, book, stream, reference, case
    ):
        shape, spec = case
        plan = FaultPlan.from_spec(spec, seed=7)
        srv = _server(scenario, tape, book, **shape)
        res = srv.serve(stream, faults=plan)
        assert res.n_offered == res.n_completed + res.n_shed + res.n_failed
        assert res.n_completed == len(res.responses)
        assert res.n_failed == len(res.fails)
        # Every request id appears exactly once across the three bins.
        ids = (
            [r.request_id for r in res.responses]
            + [s.request.request_id for s in res.sheds]
            + [f.request.request_id for f in res.fails]
        )
        assert sorted(ids) == [r.request_id for r in stream]
        # Faults only ever move timing: every answer is the lone price.
        for resp in res.responses:
            assert resp.value == reference[resp.request_id]
        if plan.is_empty:
            assert res == srv.serve(stream)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_zero_fault_identity(self, scenario, tape, book, stream, scheduler):
        srv = _server(scenario, tape, book, scheduler)
        legacy = srv.serve(stream)
        empty = srv.serve(stream, faults=FaultPlan())
        assert empty == legacy
        assert srv.last_fault_report is None


class TestGridConservation:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("spec", GRID_PLANS)
    def test_scenarios_all_accounted(
        self, scenario, book, scheduler, spec
    ):
        n_scenarios = 48
        assignment = shard_scenarios(n_scenarios, 4, scheduler=scheduler)
        timing = simulate_grid_run(
            assignment,
            book.options,
            scenario.yield_curve(),
            scenario.hazard_curve(),
            scenario=scenario,
            policy=scheduler,
            faults=FaultPlan.from_spec(spec, seed=7),
        )
        assert isinstance(timing, FaultedClusterTiming)
        assert timing.n_scenarios == n_scenarios
        assert timing.n_failed_scenarios >= 0
        # Conservation: what was not failed completed (the roll-up's
        # makespan only covers completed work).
        assert timing.n_failed_scenarios <= n_scenarios
        assert timing.wasted_seconds >= 0.0

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_zero_fault_identity(self, scenario, book, scheduler):
        assignment = shard_scenarios(48, 4, scheduler=scheduler)
        kw = dict(
            scenario=scenario,
            policy=scheduler,
        )
        legacy = simulate_grid_run(
            assignment, book.options, scenario.yield_curve(),
            scenario.hazard_curve(), **kw,
        )
        empty = simulate_grid_run(
            assignment, book.options, scenario.yield_curve(),
            scenario.hazard_curve(), faults=FaultPlan(), **kw,
        )
        assert empty == legacy
        assert type(empty) is type(legacy)

    def test_all_cards_dead_fails_everything_remaining(self, scenario, book):
        assignment = shard_scenarios(24, 2)
        timing = simulate_grid_run(
            assignment, book.options, scenario.yield_curve(),
            scenario.hazard_curve(), scenario=scenario, policy="least-loaded",
            faults=FaultPlan.from_spec("correlated:cards=0+1,at=0.0002"),
        )
        done = timing.n_scenarios - timing.n_failed_scenarios
        assert timing.n_failed_scenarios > 0
        assert 0 <= done < timing.n_scenarios


class TestDeterminism:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_faulted_serve_reproducible(
        self, scenario, tape, book, stream, scheduler
    ):
        plan = FaultPlan.from_spec(OVERLAP, seed=11)
        a = _server(scenario, tape, book, scheduler).serve(stream, faults=plan)
        b = _server(scenario, tape, book, scheduler).serve(stream, faults=plan)
        assert a == b

    def test_faulted_grid_reproducible(self, scenario, book):
        assignment = shard_scenarios(48, 4)
        runs = [
            simulate_grid_run(
                assignment, book.options, scenario.yield_curve(),
                scenario.hazard_curve(), scenario=scenario,
                policy="least-loaded",
                faults=FaultPlan.from_spec(GRID_PLANS[0], seed=7),
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
