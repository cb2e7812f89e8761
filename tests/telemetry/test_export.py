"""Exporter tests: Chrome trace round-trip and the metrics snapshot."""

import json

import pytest

from repro.errors import ValidationError
from repro.telemetry import (
    MetricsRegistry,
    SpanRecorder,
    chrome_trace,
    load_chrome_trace,
    metrics_snapshot,
    write_chrome_trace,
    write_metrics_snapshot,
)
from repro.telemetry.export import TELEMETRY_SCHEMA_VERSION


@pytest.fixture
def recorder() -> SpanRecorder:
    r = SpanRecorder()
    r.record("card_batch", 0.0, 2e-3, track="card0", category="resource",
             kind="cluster", args={"options": 4})
    r.record("coalesce", 0.0, 1e-3, track="requests", category="request",
             trace_id=7, kind="quote")
    r.record("card_service", 1e-3, 2e-3, track="requests", category="request",
             trace_id=7, kind="quote", args={"card": 0})
    return r


class TestChromeTrace:
    def test_payload_shape(self, recorder):
        payload = chrome_trace(recorder)
        assert payload["otherData"]["schema_version"] == TELEMETRY_SCHEMA_VERSION
        phases = [e["ph"] for e in payload["traceEvents"]]
        # Metadata, one complete slice, and an async begin/end pair.
        assert phases.count("X") == 1
        assert phases.count("b") == 2
        assert phases.count("e") == 2

    def test_round_trip(self, recorder):
        loaded = load_chrome_trace(chrome_trace(recorder))
        assert len(loaded) == len(recorder.spans)
        by_name = {s.name: s for s in loaded}
        resource = by_name["card_batch"]
        assert resource.trace_id is None
        assert resource.track == "card0"
        assert resource.kind == "cluster"
        assert resource.args == {"options": 4}
        assert resource.duration_s == pytest.approx(2e-3)
        request = by_name["coalesce"]
        assert request.trace_id == 7
        assert request.kind == "quote"

    def test_round_trip_via_file(self, recorder, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", recorder)
        assert json.loads(path.read_text())["displayTimeUnit"] == "ms"
        loaded = load_chrome_trace(path)
        assert {s.name for s in loaded} == {
            "card_batch", "coalesce", "card_service"
        }

    def test_rejects_non_trace_payload(self):
        with pytest.raises(ValidationError):
            load_chrome_trace({"not": "a trace"})

    def test_rejects_unmatched_async_end(self):
        payload = {
            "traceEvents": [
                {"ph": "e", "pid": 0, "tid": 0, "name": "x", "id": 1,
                 "ts": 2.0, "cat": "request"},
            ]
        }
        with pytest.raises(ValidationError):
            load_chrome_trace(payload)


class TestMetricsSnapshot:
    def test_versioned_payload(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        snap = metrics_snapshot(reg)
        assert snap["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert snap["metrics"]["n"]["value"] == 2.0
        path = write_metrics_snapshot(tmp_path / "metrics.json", reg)
        assert json.loads(path.read_text()) == snap

    def test_every_type_reported(self):
        reg = MetricsRegistry()
        reg.counter("requests_total").inc(3)
        reg.gauge("util").set(0.5)
        reg.histogram("lat").observe_many([1.0, 2.0, 3.0])
        assert metrics_snapshot(reg)["metrics"] == {
            "lat": {"type": "histogram", "value": {
                "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0,
                "quantiles": {"0.5": 2.0, "0.95": 2.9, "0.99": 2.98},
            }},
            "requests_total": {"type": "counter", "value": 3.0},
            "util": {"type": "gauge", "value": 0.5},
        }

    def test_labelled_metrics_keep_their_type(self):
        reg = MetricsRegistry()
        reg.counter("rows", labels={"card": "0"}).inc(1)
        reg.counter("rows", labels={"card": "1"}).inc(2)
        assert metrics_snapshot(reg)["metrics"] == {
            'rows{card="0"}': {"type": "counter", "value": 1.0},
            'rows{card="1"}': {"type": "counter", "value": 2.0},
        }

    def test_empty_histogram_writes_nulls(self, tmp_path):
        reg = MetricsRegistry()
        reg.histogram("lat")
        path = write_metrics_snapshot(tmp_path / "metrics.json", reg)
        value = json.loads(path.read_text())["metrics"]["lat"]["value"]
        assert value == {
            "count": 0, "sum": 0.0, "min": None, "max": None,
            "quantiles": {"0.5": None, "0.95": None, "0.99": None},
        }
