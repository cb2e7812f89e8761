"""repro.telemetry — spans, metrics and trace export on the unified clock.

The observability substrate over :mod:`repro.sim`: every
:class:`~repro.sim.Resource` busy window and every request phase in the
serving path can be recorded as a :class:`~repro.telemetry.spans.Span`
keyed to the simulated clock, run tallies live in a
:class:`~repro.telemetry.metrics.MetricsRegistry` (counters, gauges and
histograms whose quantiles follow the serving report's rule), and
:mod:`repro.telemetry.export` serialises both — Chrome trace-event JSON
for Perfetto timelines, and a versioned JSON metrics snapshot.

Recording is opt-in: the default :data:`NULL_TELEMETRY` handle costs one
attribute check per would-be span, and every report stays byte-identical
whether telemetry is attached or not.  Pass
``Telemetry.recording()`` into :func:`repro.api.open_session` (or use
the ``--trace-out`` / ``--metrics-out`` CLI flags) to capture a run;
``repro-cds trace`` summarises the resulting file.
"""

from repro.telemetry.core import NULL_TELEMETRY, Telemetry
from repro.telemetry.export import (
    chrome_trace,
    load_chrome_trace,
    metrics_snapshot,
    write_chrome_trace,
    write_metrics_snapshot,
)
from repro.telemetry.metrics import (
    Counter,
    CounterFamily,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    metric_key,
)
from repro.telemetry.profile import KernelProfiler
from repro.telemetry.spans import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    SpanRecorder,
)

__all__ = [
    "NULL_RECORDER",
    "NULL_TELEMETRY",
    "Counter",
    "CounterFamily",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "NullRecorder",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "chrome_trace",
    "load_chrome_trace",
    "escape_label_value",
    "metric_key",
    "metrics_snapshot",
    "write_chrome_trace",
    "write_metrics_snapshot",
]
