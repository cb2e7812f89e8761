"""Edge-case contracts for the serving stat helpers.

The degenerate streams a long-running server actually produces — empty
latency samples, a single completed request, a kind that was entirely
shed, a one-card cluster — must have pinned, explicit behaviour rather
than whatever NumPy happens to do.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.errors import ValidationError
from repro.serving.metrics import (
    CardLoad,
    KindStats,
    LatencyStats,
    ServingResult,
    per_kind_stats,
)
from repro.serving.request import (
    FailRecord,
    PricingRequest,
    PricingResponse,
    ShedReason,
    ShedRecord,
)


def _request(request_id: int, kind: str = "quote") -> PricingRequest:
    return PricingRequest(
        request_id=request_id,
        kind=kind,
        arrival_s=0.0,
        deadline_s=1.0,
        rows=(0,),
        option_index=0 if kind == "quote" else None,
    )


def _response(
    request_id: int, kind: str = "quote", latency_s: float = 1e-3,
    met: bool = True,
) -> PricingResponse:
    return PricingResponse(
        request_id=request_id,
        kind=kind,
        value=42.0,
        arrival_s=0.0,
        formed_s=latency_s / 2,
        completion_s=latency_s,
        latency_s=latency_s,
        met_deadline=met,
        batch_id=0,
        cards=(0,),
    )


def _result(responses=(), sheds=(), fails=(), cards=(), span_seconds=1.0) -> ServingResult:
    met = sum(1 for r in responses if r.met_deadline)
    return ServingResult(
        n_offered=len(responses) + len(sheds) + len(fails),
        n_completed=len(responses),
        n_shed_queue=sum(1 for s in sheds if s.reason == "queue_full"),
        n_shed_deadline=sum(1 for s in sheds if s.reason == "deadline"),
        n_deadline_met=met,
        n_late=len(responses) - met,
        span_seconds=span_seconds,
        throughput_rps=len(responses) / span_seconds,
        goodput_rps=met / span_seconds,
        shed_rate=(
            len(sheds) / (len(responses) + len(sheds))
            if responses or sheds
            else 0.0
        ),
        deadline_hit_rate=met / len(responses) if responses else 0.0,
        latency=LatencyStats.from_latencies(
            np.asarray([r.latency_s for r in responses])
        ),
        n_dispatches=1,
        mean_batch_requests=float(len(responses)),
        mean_batch_rows=1.0,
        cards=tuple(cards),
        responses=tuple(responses),
        sheds=tuple(sheds),
        n_failed=len(fails),
        fails=tuple(fails),
    )


class TestLatencyStatsEmpty:
    def test_default_zero_policy(self):
        stats = LatencyStats.from_latencies(np.array([]))
        assert stats.n == 0
        assert stats.mean_s == 0.0
        assert stats.p99_s == 0.0


class TestLatencyStatsDegenerate:
    def test_single_sample_every_stat_equals_it(self):
        stats = LatencyStats.from_latencies(np.array([2e-3]))
        assert stats.n == 1
        for value in (stats.mean_s, stats.p50_s, stats.p95_s, stats.p99_s,
                      stats.max_s):
            assert value == pytest.approx(2e-3)

    def test_nan_sample_rejected(self):
        with pytest.raises(ValidationError):
            LatencyStats.from_latencies(np.array([1e-3, float("nan")]))

    def test_negative_sample_rejected(self):
        with pytest.raises(ValidationError):
            LatencyStats.from_latencies(np.array([-1e-3]))


class TestPerKindStatsEdges:
    def test_kind_with_zero_requests_is_omitted(self):
        result = _result(responses=[_response(0, "quote")])
        kinds = per_kind_stats(result)
        assert [k.kind for k in kinds] == ["quote"]

    def test_all_shed_kind_has_zero_completions(self):
        sheds = [
            ShedRecord(request=_request(0, "var"), time_s=0.5,
                       reason="queue_full"),
            ShedRecord(request=_request(1, "var"), time_s=0.6,
                       reason="deadline"),
        ]
        result = _result(responses=[_response(2, "quote")], sheds=sheds)
        by_kind = {k.kind: k for k in per_kind_stats(result)}
        var = by_kind["var"]
        assert var.n_offered == 2
        assert var.n_completed == 0
        assert var.n_shed == 2
        assert var.deadline_hit_rate == 0.0
        assert var.goodput_rps == 0.0
        assert var.latency.n == 0

    def test_fully_shed_run(self):
        sheds = [
            ShedRecord(request=_request(i, "quote"), time_s=0.1,
                       reason="queue_full")
            for i in range(3)
        ]
        result = _result(sheds=sheds)
        kinds = per_kind_stats(result)
        assert len(kinds) == 1
        assert kinds[0].n_completed == 0
        assert result.shed_rate == 1.0

    def test_canonical_kind_order(self):
        result = _result(
            responses=[
                _response(0, "var"), _response(1, "quote"),
                _response(2, "reval"),
            ]
        )
        assert [k.kind for k in per_kind_stats(result)] == [
            "quote", "reval", "var"
        ]

    def test_per_kind_goodput_sums_to_aggregate(self):
        result = _result(
            responses=[
                _response(0, "quote"), _response(1, "var", met=False),
                _response(2, "reval"),
            ]
        )
        kinds = per_kind_stats(result)
        assert sum(k.goodput_rps for k in kinds) == pytest.approx(
            result.goodput_rps
        )

    def test_single_completion_of_a_kind(self):
        result = _result(responses=[_response(0, "reval", latency_s=3e-3)])
        (reval,) = per_kind_stats(result)
        assert isinstance(reval, KindStats)
        assert reval.latency.n == 1
        assert reval.latency.p99_s == pytest.approx(3e-3)


class TestCardLoadEdges:
    def test_idle_card(self):
        idle = CardLoad(card_id=1, dispatches=0, n_rows=0, n_cells=0,
                        busy_seconds=0.0, utilisation=0.0)
        assert idle.idle is True

    def test_single_card_carries_everything(self):
        card = CardLoad(card_id=0, dispatches=4, n_rows=10, n_cells=80,
                        busy_seconds=0.5, utilisation=0.5)
        result = _result(responses=[_response(0)], cards=[card])
        assert len(result.cards) == 1
        assert result.cards[0].idle is False
        # The render path must cope with a one-card table.
        assert "Card" in result.render()


class TestShedReasonAccounting:
    """The typed shed/fail taxonomy introduced with fault injection."""

    def test_fail_record_normalises_string_reason(self):
        f = FailRecord(_request(0), 0.5, attempts=3, reason="card_failure")
        assert f.reason is ShedReason.CARD_FAILURE

    def test_n_shed_other_counts_beyond_legacy_pair(self):
        sheds = (
            ShedRecord(_request(0), 0.1, "queue_full"),
            ShedRecord(_request(1), 0.2, "deadline"),
            ShedRecord(_request(2), 0.3, ShedReason.DEGRADED),
        )
        res = _result(sheds=sheds)
        assert res.n_shed == 3
        assert res.n_shed_other == 1

    def test_shed_reason_counts_spans_sheds_and_fails(self):
        sheds = (
            ShedRecord(_request(0), 0.1, "queue_full"),
            ShedRecord(_request(1), 0.3, ShedReason.DEGRADED),
        )
        fails = (
            FailRecord(_request(2), 0.4, attempts=3,
                       reason=ShedReason.CARD_FAILURE),
            FailRecord(_request(3), 0.5, attempts=2,
                       reason=ShedReason.CARD_FAILURE),
        )
        counts = _result(sheds=sheds, fails=fails).shed_reason_counts()
        assert counts == {
            "queue_full": 1,
            "card_failure": 2,
            "degraded": 1,
        }

    def test_zero_fault_counts_omit_fault_reasons(self):
        sheds = (ShedRecord(_request(0), 0.1, "queue_full"),)
        counts = _result(sheds=sheds).shed_reason_counts()
        assert counts == {"queue_full": 1}

    def test_per_kind_stats_count_failures_in_offered(self):
        responses = (_response(0, "quote"),)
        fails = (
            FailRecord(_request(1, "var"), 0.4, attempts=3,
                       reason=ShedReason.CARD_FAILURE),
        )
        stats = {
            s.kind: s
            for s in per_kind_stats(_result(responses=responses, fails=fails))
        }
        assert stats["var"].n_offered == 1
        assert stats["var"].n_completed == 0
        assert stats["quote"].n_offered == 1
