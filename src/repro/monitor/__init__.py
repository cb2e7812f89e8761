"""repro.monitor — SLOs, burn-rate alerts and detection on the sim clock.

The judgment layer over :mod:`repro.telemetry` and :mod:`repro.faults`:
a :class:`~repro.monitor.sampler.MetricsSampler` turns the live metrics
registry into :class:`~repro.monitor.series.TimeSeries` on a fixed
simulated cadence, the SLO engine (:mod:`repro.monitor.slo`) judges the
replay against declarative objectives with Google-SRE-style
multi-window multi-burn-rate alert rules, detection scoring
(:mod:`repro.monitor.detect`) reconciles fired alerts against injected
fault plans (time-to-detect, false positives/negatives), the dashboard
(:mod:`repro.monitor.dashboard`) renders it all as one self-contained
HTML file, and the perf watchdog (:mod:`repro.monitor.regress`) gates
CI on the committed ``BENCH_*.json`` baselines.

Monitoring is opt-in, exactly like telemetry: ``serve(...,
monitor=None)`` costs nothing and every report stays byte-identical;
pass a :class:`Monitor` to capture a :class:`MonitorResult`.
"""

from repro.monitor.dashboard import render_dashboard, write_dashboard
from repro.monitor.regress import (
    CheckResult,
    Tolerance,
    bench_check,
    compare_snapshots,
    render_check_results,
)
from repro.monitor.core import (
    DEFAULT_OBJECTIVES,
    Monitor,
    MonitorConfig,
    MonitorResult,
    monitor_result_dict,
    render_monitor_result,
    tenant_objectives,
    write_monitor_result,
)
from repro.monitor.detect import DetectionReport, FaultInterval, score_detection
from repro.monitor.sampler import MetricsSampler
from repro.monitor.series import Point, TimeSeries
from repro.monitor.slo import (
    DEFAULT_RULES,
    Alert,
    BurnRateRule,
    Objective,
    SLOStatus,
    evaluate_objective,
)

__all__ = [
    "Alert",
    "BurnRateRule",
    "CheckResult",
    "DEFAULT_OBJECTIVES",
    "DEFAULT_RULES",
    "DetectionReport",
    "FaultInterval",
    "MetricsSampler",
    "Monitor",
    "MonitorConfig",
    "MonitorResult",
    "Objective",
    "Point",
    "SLOStatus",
    "TimeSeries",
    "Tolerance",
    "bench_check",
    "compare_snapshots",
    "evaluate_objective",
    "monitor_result_dict",
    "render_check_results",
    "render_dashboard",
    "render_monitor_result",
    "score_detection",
    "tenant_objectives",
    "write_dashboard",
    "write_monitor_result",
]
