"""Unit tests for event tracing."""

import pytest

from repro.dataflow.engine import Simulator, collector, feeder, transformer
from repro.dataflow.tracing import Trace


@pytest.fixture
def traced_run():
    sim = Simulator()
    a = sim.stream("a", depth=2)
    b = sim.stream("b", depth=2)
    trace = Trace()
    sim.tracer = trace
    sim.process("src", feeder(a, list(range(5))))
    sim.process("mid", transformer(a, b, 5, lambda v: v, ii=3.0, latency=10.0))
    sim.process("dst", collector(b, 5, []))
    result = sim.run()
    return trace, result


class TestTrace:
    def test_events_recorded(self, traced_run):
        trace, _ = traced_run
        assert len(trace) > 0
        kinds = {e.kind for e in trace.events}
        assert kinds == {"read", "write"}

    def test_token_conservation_per_stream(self, traced_run):
        trace, _ = traced_run
        for stream in ("a", "b"):
            evs = trace.for_stream(stream)
            writes = sum(1 for e in evs if e.kind == "write")
            reads = sum(1 for e in evs if e.kind == "read")
            assert writes == reads == 5

    def test_occupancy_profile_bounds(self, traced_run):
        trace, _ = traced_run
        profile = trace.occupancy_profile("a")
        occs = [o for _, o in profile]
        assert min(occs) >= 0
        assert max(occs) <= 2  # stream depth
        assert occs[-1] == 0  # fully drained

    def test_occupancy_at(self, traced_run):
        trace, result = traced_run
        assert trace.occupancy_at("a", -1.0) == 0
        assert trace.occupancy_at("a", result.makespan_cycles + 1) == 0

    def test_first_output_time_reflects_latency(self, traced_run):
        trace, _ = traced_run
        # The first read on b cannot precede the mid stage's 10-cycle latency.
        t = trace.first_output_time("b")
        assert t is not None and t >= 10.0

    def test_first_output_time_missing_stream(self, traced_run):
        trace, _ = traced_run
        assert trace.first_output_time("nonexistent") is None

    def test_timeline_renders(self, traced_run):
        trace, _ = traced_run
        text = trace.timeline(limit=10)
        assert "cycle" in text
        assert len(text.splitlines()) <= 11


class TestTelemetryAdapter:
    def test_recorder_mirrors_events_as_instant_spans(self):
        from repro.telemetry import SpanRecorder

        recorder = SpanRecorder()
        sim = Simulator()
        a = sim.stream("a", depth=2)
        sim.process("src", feeder(a, [1, 2]))
        sim.process("dst", collector(a, 2, []))
        trace = Trace(recorder=recorder)
        sim.tracer = trace
        sim.run()
        assert len(recorder) == len(trace.events)
        for event, span in zip(trace.events, recorder.spans):
            assert span.name == event.kind
            assert span.start_s == span.end_s == event.time
            assert span.track == event.stream
            assert span.category == "dataflow"
            assert span.args == {"process": event.process}

    def test_spans_property_views_legacy_events(self, traced_run):
        trace, _ = traced_run
        spans = trace.spans
        assert len(spans) == len(trace)
        assert {s.category for s in spans} == {"dataflow"}
        assert {s.name for s in spans} == {"read", "write"}

    def test_bare_record_keeps_events_without_warning(self):
        import warnings

        trace = Trace()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace.record("write", 0.0, "p", "s")
        assert [e.kind for e in trace.events] == ["write"]

    def test_recorder_attached_does_not_warn(self):
        import warnings

        from repro.telemetry import SpanRecorder

        trace = Trace(recorder=SpanRecorder())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace.record("write", 0.0, "p", "s")
