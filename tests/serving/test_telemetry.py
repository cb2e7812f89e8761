"""Telemetry integration for the quote server.

Two contracts pin the tentpole acceptance criteria at engine level:

* with a recording handle, every completed request's phase spans tile
  its [arrival, completion] window exactly — the span durations sum to
  the response latency;
* with the default no-op handle, the :class:`ServingResult` is
  *identical* to a recorded run's (telemetry observes, never perturbs).

Both hold for a fault-free replay and for one under a crash plan, whose
retried requests still emit exactly the four phases.
"""

from __future__ import annotations

import pytest

from repro.cluster.batching import BatchQueue
from repro.faults import FaultPlan
from repro.risk.engine import make_book
from repro.serving import QuoteServer
from repro.telemetry import NULL_TELEMETRY, Telemetry

from .conftest import N_POSITIONS

#: Request-phase spans in pipeline order.
PHASES = ("coalesce", "host_link", "card_queue", "card_service")

#: The replays every contract must hold for: fault-free, and a crash
#: buried under a straggler so card windows die mid-flight and retry.
PLANS = {
    "fault-free": None,
    "crash": "slow:card=1,at=0.005,for=0.06,factor=80;"
    "crash:card=1,at=0.03,repair=0.03",
}

#: Fault counters a replay publishes only under a non-empty plan.
FAULT_COUNTERS = (
    "serving_retries_total",
    "serving_hedges_total",
    "serving_breaker_trips_total",
    "serving_requests_failed_total",
    "serving_requests_shed_degraded_total",
)


def _make_server(serving_scenario, tape, telemetry=None) -> QuoteServer:
    return QuoteServer(
        make_book("heterogeneous", N_POSITIONS, seed=5),
        tape,
        scenario=serving_scenario,
        n_cards=2,
        n_engines=2,
        queue=BatchQueue(max_batch=16, linger_s=1e-3),
        queue_depth=256,
        telemetry=telemetry,
    )


@pytest.fixture(scope="module", params=sorted(PLANS))
def plan(request) -> FaultPlan | None:
    spec = PLANS[request.param]
    return None if spec is None else FaultPlan.from_spec(spec, seed=7)


@pytest.fixture(scope="module")
def recorded(serving_scenario, tape, stream, plan):
    telemetry = Telemetry.recording()
    server = _make_server(serving_scenario, tape, telemetry)
    result = server.serve(stream, faults=plan)
    return telemetry, result


class TestRequestSpans:
    def test_every_response_has_the_four_phases(self, recorded):
        telemetry, result = recorded
        for response in result.responses:
            spans = telemetry.recorder.for_trace(response.request_id)
            assert tuple(s.name for s in spans) == PHASES

    def test_phase_durations_sum_to_latency(self, recorded):
        telemetry, result = recorded
        for response in result.responses:
            spans = telemetry.recorder.for_trace(response.request_id)
            total = sum(s.duration_s for s in spans)
            assert total == pytest.approx(response.latency_s, abs=1e-12)

    def test_phases_are_contiguous(self, recorded):
        telemetry, result = recorded
        for response in result.responses[:50]:
            spans = telemetry.recorder.for_trace(response.request_id)
            for left, right in zip(spans, spans[1:]):
                assert right.start_s == pytest.approx(left.end_s, abs=1e-12)

    def test_spans_carry_kind(self, recorded):
        telemetry, result = recorded
        for response in result.responses[:50]:
            spans = telemetry.recorder.for_trace(response.request_id)
            assert {s.kind for s in spans} == {response.kind}

    def test_resource_tracks_present(self, recorded):
        telemetry, result = recorded
        tracks = {s.track for s in telemetry.spans if s.category == "resource"}
        assert "host" in tracks
        assert {"card0", "card1"} <= tracks

    def test_card_busy_matches_resource_spans(self, recorded):
        telemetry, result = recorded
        for card in result.cards:
            spans = telemetry.recorder.for_track(f"card{card.card_id}")
            busy = sum(
                s.duration_s for s in spans if s.category == "resource"
            )
            assert busy == pytest.approx(card.busy_seconds, abs=1e-12)


class TestMetricsPublication:
    def test_counters_match_result(self, recorded):
        telemetry, result = recorded
        m = telemetry.metrics
        assert m.get("serving_requests_offered_total").value == result.n_offered
        assert (
            m.get("serving_requests_completed_total").value
            == result.n_completed
        )
        assert m.get("serving_batches_total").value == result.n_dispatches

    def test_latency_histogram_count(self, recorded):
        telemetry, result = recorded
        h = telemetry.metrics.get("serving_latency_seconds")
        assert h.count == result.n_completed
        assert h.max == pytest.approx(result.latency.max_s)

    def test_fault_counters_only_under_faults(self, recorded, plan):
        telemetry, _ = recorded
        names = telemetry.metrics.names()
        if plan is None:
            assert not set(FAULT_COUNTERS) & set(names)
        else:
            assert set(FAULT_COUNTERS) <= set(names)
            assert telemetry.metrics.get("serving_retries_total").value > 0


class TestNoOpIdentity:
    def test_default_run_identical_to_recorded_run(
        self, serving_scenario, tape, stream, recorded, plan
    ):
        _, with_telemetry = recorded
        bare = _make_server(serving_scenario, tape).serve(stream, faults=plan)
        # Frozen-dataclass equality over every simulated number.
        assert bare == with_telemetry

    def test_null_singleton_registry_stays_clean(
        self, serving_scenario, tape, stream
    ):
        before = len(NULL_TELEMETRY.metrics)
        _make_server(serving_scenario, tape).serve(stream)
        assert len(NULL_TELEMETRY.metrics) == before
