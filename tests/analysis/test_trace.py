"""Tests for the trace summariser and the ``repro-cds trace`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.trace import (
    render_trace_summary,
    summarise_trace,
    trace_summary_dict,
)
from repro.cli import main
from repro.errors import ValidationError
from repro.telemetry import SpanRecorder, chrome_trace


@pytest.fixture
def recorder() -> SpanRecorder:
    r = SpanRecorder()
    # Two requests (one slow), two cards, one shed.
    for trace_id, kind, t0, service in ((1, "quote", 0.0, 1e-3),
                                        (2, "var", 0.0, 4e-3)):
        r.record("coalesce", t0, t0 + 1e-3, track="requests",
                 category="request", trace_id=trace_id, kind=kind)
        r.record("host_link", t0 + 1e-3, t0 + 1.1e-3, track="requests",
                 category="request", trace_id=trace_id, kind=kind)
        r.record("card_queue", t0 + 1.1e-3, t0 + 2e-3, track="requests",
                 category="request", trace_id=trace_id, kind=kind)
        r.record("card_service", t0 + 2e-3, t0 + 2e-3 + service,
                 track="requests", category="request", trace_id=trace_id,
                 kind=kind)
    r.record("chunk", 2e-3, 3e-3, track="card0", category="resource")
    r.record("chunk", 2e-3, 6e-3, track="card1", category="resource")
    r.record("dispatch", 1e-3, 1.1e-3, track="host", category="resource")
    r.record("shed", 5e-3, 5e-3, track="server", category="request",
             trace_id=9, kind="quote")
    return r


class TestSummariseTrace:
    def test_counts(self, recorder):
        summary = summarise_trace(recorder)
        assert summary.n_spans == len(recorder.spans)
        assert summary.n_requests == 2
        assert summary.n_shed == 1
        assert summary.span_seconds == pytest.approx(6e-3)

    def test_critical_path_ordering_and_phases(self, recorder):
        summary = summarise_trace(recorder, top=1)
        (slowest,) = summary.critical_path
        assert slowest.trace_id == 2
        assert slowest.kind == "var"
        assert slowest.latency_s == pytest.approx(6e-3)
        assert [name for name, _ in slowest.phases] == [
            "coalesce", "host_link", "card_queue", "card_service"
        ]
        assert sum(d for _, d in slowest.phases) == pytest.approx(
            slowest.latency_s
        )
        assert slowest.wait_s == pytest.approx(1e-3 + 0.9e-3)

    def test_tracks_sorted_by_busy(self, recorder):
        summary = summarise_trace(recorder)
        assert [t.track for t in summary.tracks] == ["card1", "card0", "host"]
        card1 = summary.tracks[0]
        assert card1.busy_seconds == pytest.approx(4e-3)
        assert card1.busy_share == pytest.approx(4e-3 / 6e-3)

    def test_kind_wait_breakdown(self, recorder):
        summary = summarise_trace(recorder)
        by_kind = {k.kind: k for k in summary.kinds}
        assert set(by_kind) == {"quote", "var"}
        assert by_kind["quote"].n_requests == 1
        assert by_kind["var"].mean_wait_s == pytest.approx(1.9e-3)

    def test_p95_wait_interpolates(self):
        r = SpanRecorder()
        for trace_id in range(1, 6):
            wait = trace_id * 1e-3
            r.record("coalesce", 0.0, wait, track="requests",
                     category="request", trace_id=trace_id, kind="quote")
            r.record("card_service", wait, wait + 1e-3, track="requests",
                     category="request", trace_id=trace_id, kind="quote")
        (quote,) = summarise_trace(r).kinds
        # Waits 1..5 ms: rank 0.95 * 4 = 3.8 sits 80% of the way from
        # the 4 ms to the 5 ms wait.
        assert quote.p95_wait_s == pytest.approx(4.8e-3)
        assert quote.max_wait_s == pytest.approx(5e-3)

    def test_round_trips_through_chrome_payload(self, recorder, tmp_path):
        direct = summarise_trace(recorder)
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome_trace(recorder)))
        loaded = summarise_trace(path)
        assert loaded == direct

    def test_accepts_span_sequence(self, recorder):
        assert summarise_trace(tuple(recorder.spans)) == summarise_trace(
            recorder
        )

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            summarise_trace(SpanRecorder())

    def test_bad_top_rejected(self, recorder):
        with pytest.raises(ValidationError):
            summarise_trace(recorder, top=0)

    def test_dict_shape(self, recorder):
        payload = trace_summary_dict(summarise_trace(recorder))
        assert set(payload) == {
            "n_spans", "n_requests", "n_shed", "span_seconds",
            "critical_path", "tracks", "kinds",
        }
        assert payload["critical_path"][0]["trace_id"] == 2

    def test_render_is_deterministic(self, recorder):
        text = render_trace_summary(summarise_trace(recorder))
        assert text == render_trace_summary(summarise_trace(recorder))
        assert "resources by busy share" in text
        assert "critical path" in text


class TestTraceCli:
    def test_serve_writes_and_trace_reads(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "--options", "8", "serve", "--requests", "60", "--rate", "20000",
            "--states", "32", "--cards", "2", "--seed", "5",
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]) == 0
        capsys.readouterr()
        assert trace_path.exists() and metrics_path.exists()
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["schema_version"] == 1
        assert "serving_requests_offered_total" in snapshot["metrics"]

        assert main(["trace", str(trace_path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "critical path" in out

        assert main(["trace", str(trace_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_requests"] == 60
        assert len(payload["critical_path"]) <= 10

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err
