"""The monitor: sampler + SLO engine + detection over one replay.

:class:`Monitor` is the handle the serving engine accepts (``serve(...,
monitor=...)``), mirroring the telemetry discipline: ``None`` costs
nothing and every report stays byte-identical, a live monitor rides the
replay's trace hooks and leaves a :class:`MonitorResult` behind.

Lifecycle::

    monitor = Monitor()                      # default config
    server.serve(requests, monitor=monitor)  # attach + finalize inside
    monitor.result.alerts                    # fired alerts
    monitor.result.detection                 # vs the fault plan, if any

:meth:`Monitor.attach` hooks a :class:`~repro.monitor.sampler.
MetricsSampler` onto the replay's simulation (registry counters plus a
``cards_up`` availability probe); :meth:`Monitor.finalize` flushes the
sampler, derives per-kind event series from the raw result, evaluates
every configured :class:`~repro.monitor.slo.Objective`, scores
detection against the fault plan, and — when a recording telemetry
handle is present — emits each alert as a span on the ``alerts`` track
and counts it in the session registry (``monitor_alerts_total``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.validation import check_positive_finite
from repro.errors import ValidationError
from repro.monitor.detect import DetectionReport, fault_intervals, score_detection
from repro.monitor.sampler import MetricsSampler
from repro.monitor.series import TimeSeries
from repro.monitor.slo import (
    DEFAULT_RULES,
    Alert,
    BurnRateRule,
    Objective,
    SLOStatus,
    evaluate_objective,
)

__all__ = [
    "MonitorConfig",
    "Monitor",
    "MonitorResult",
    "DEFAULT_OBJECTIVES",
    "monitor_result_dict",
    "tenant_objectives",
    "write_monitor_result",
    "render_monitor_result",
]

#: Schema stamp carried in monitor JSON exports.
MONITOR_SCHEMA_VERSION = 1

#: Default objectives for the serving workloads, calibrated against the
#: seed-7 chaos matrix: the baseline cell must never breach any of them
#: (zero false positives is a committed-golden property), while a card
#: crash breaches availability within one short window.  Latency and
#: deadline budgets are therefore set from the baseline's worst
#: windowed behaviour (p99 spikes to ~12 ms, one 25 ms window misses
#: ~7.5% of deadlines), not from aspirational production numbers.
DEFAULT_OBJECTIVES: tuple[Objective, ...] = (
    Objective(name="card-availability", sli="availability", target=0.95),
    Objective(
        name="quote-latency",
        sli="latency",
        kind="quote",
        threshold_s=15e-3,
        target=0.99,
    ),
    Objective(name="deadline-hit", sli="deadline", target=0.90),
    Objective(name="shed-rate", sli="shed", target=0.95),
)

#: Registry counters the sampler tracks by default (bare names; every
#: labelled variant becomes its own series).
DEFAULT_SAMPLED_METRICS: tuple[str, ...] = (
    "serving_batches_total",
    "serving_batch_requests_total",
    "serving_requests_shed_queue_total",
    "serving_card_rows_total",
)


def tenant_objectives(
    tenants: tuple[str, ...],
    *,
    availability_target: float = 0.95,
    latency_threshold_s: float = 15e-3,
    latency_target: float = 0.99,
    deadline_target: float = 0.90,
) -> tuple[Objective, ...]:
    """Per-tenant SLOs for a monitored gateway replay.

    One cluster-wide availability objective plus a quote-latency and a
    deadline objective *per tenant* — how a multi-tenant desk actually
    contracts: the gold desk's budget must not be judged on bronze's
    traffic.  Tenant-scoped statuses carry a ``tenant`` key in their
    JSON dumps; unscoped single-tenant monitoring is unaffected.

    Parameters
    ----------
    tenants:
        Tenant names, in reporting order.
    availability_target / latency_threshold_s / latency_target /
    deadline_target:
        The shared targets, defaulting to the serving-layer calibration
        of :data:`DEFAULT_OBJECTIVES`.
    """
    if not tenants:
        raise ValidationError("tenant_objectives needs >= 1 tenant name")
    objectives = [
        Objective(
            name="card-availability",
            sli="availability",
            target=availability_target,
        ),
    ]
    for tenant in tenants:
        objectives.append(
            Objective(
                name=f"{tenant}-quote-latency",
                sli="latency",
                kind="quote",
                threshold_s=latency_threshold_s,
                target=latency_target,
                tenant=tenant,
            )
        )
        objectives.append(
            Objective(
                name=f"{tenant}-deadline-hit",
                sli="deadline",
                target=deadline_target,
                tenant=tenant,
            )
        )
    return tuple(objectives)

#: Key of the availability probe series.
CARDS_UP_SERIES = "cards_up"


@dataclass(frozen=True)
class MonitorConfig:
    """Monitoring policy for one replay.

    Attributes
    ----------
    sample_period_s:
        Sampler grid spacing on the simulated clock.
    tick_s:
        SLO evaluation cadence (alerts fire/clear on ticks).
    objectives / rules:
        The SLOs and the multi-window burn-rate rules they share.
    detection_grace_s:
        Post-interval slack when attributing alerts to fault windows
        (defaults to the slowest rule's long window plus one tick — the
        pipeline's worst-case inherent lag).
    sampled_metrics:
        Bare registry metric names the sampler tracks.
    """

    sample_period_s: float = 5e-3
    tick_s: float = 5e-3
    objectives: tuple[Objective, ...] = DEFAULT_OBJECTIVES
    rules: tuple[BurnRateRule, ...] = DEFAULT_RULES
    detection_grace_s: float | None = None
    sampled_metrics: tuple[str, ...] = DEFAULT_SAMPLED_METRICS

    def __post_init__(self) -> None:
        check_positive_finite(self.sample_period_s, "sample_period_s")
        check_positive_finite(self.tick_s, "tick_s")
        if not self.objectives:
            raise ValidationError("monitor needs >= 1 objective")

    @property
    def grace_s(self) -> float:
        """Effective detection grace (explicit or derived from rules)."""
        if self.detection_grace_s is not None:
            return self.detection_grace_s
        return max(rule.long_s for rule in self.rules) + self.tick_s


@dataclass(frozen=True)
class MonitorResult:
    """Everything one monitored replay produced.

    Attributes
    ----------
    config:
        The policy that produced this result.
    span_s:
        Evaluation horizon (first arrival to last completion, on the
        simulated clock).
    series:
        The series bank: sampled registry counters, the ``cards_up``
        probe, and derived per-kind event series
        (``latency:<kind>``, ``deadline_miss``, ``shed``).
    statuses:
        Per-objective budget accounting, config order.
    alerts:
        Every fired alert across objectives, in fire order.
    detection:
        Alert quality against the replay's fault plan (``None`` on an
        unfaulted replay — there is no ground truth to score against).
    """

    config: MonitorConfig
    span_s: float
    series: dict = field(compare=False, repr=False)
    statuses: tuple[SLOStatus, ...]
    alerts: tuple[Alert, ...]
    detection: DetectionReport | None

    @property
    def n_alerts(self) -> int:
        """Total alerts fired."""
        return len(self.alerts)

    @property
    def breached(self) -> tuple[str, ...]:
        """Names of objectives whose whole-run target was missed."""
        return tuple(s.objective.name for s in self.statuses if not s.met)


class Monitor:
    """One replay's monitoring harness (attach → run → finalize).

    Parameters
    ----------
    config:
        Monitoring policy (default :class:`MonitorConfig`).
    """

    def __init__(self, config: MonitorConfig | None = None) -> None:
        self.config = config if config is not None else MonitorConfig()
        self.sampler: MetricsSampler | None = None
        self.result: MonitorResult | None = None
        self._n_cards = 1

    # ------------------------------------------------------------------
    def attach(
        self, sim, registry, *, n_cards: int, health=None, probe=None
    ) -> None:
        """Hook onto a replay: sample ``registry`` on ``sim``'s clock.

        Parameters
        ----------
        sim / registry:
            The replay's simulation and run-local metrics registry.
        n_cards:
            Cluster size (normalises the availability probe).
        health:
            The run's :class:`~repro.faults.ClusterHealth` when a fault
            plan is active; ``None`` means every card is always up.
        probe:
            Custom ``cards_up`` probe ``t -> float`` overriding the
            ``health`` derivation — multi-lane callers (the gateway)
            sum healthy cards across servers with their own closure.
        """
        if self.sampler is not None:
            raise ValidationError("monitor is already attached to a replay")
        self._n_cards = n_cards
        self.sampler = MetricsSampler(
            registry,
            period_s=self.config.sample_period_s,
            names=self.config.sampled_metrics,
        )
        if probe is None:
            if health is not None:
                probe = lambda t: float(len(health.healthy_cards(t)))  # noqa: E731
            else:
                probe = lambda t: float(n_cards)  # noqa: E731
        self.sampler.add_probe(CARDS_UP_SERIES, probe)
        self.sampler.attach(sim)

    # ------------------------------------------------------------------
    def finalize(self, result, *, plan=None, telemetry=None) -> MonitorResult:
        """Evaluate the replay: flush samples, run SLOs, score detection.

        Parameters
        ----------
        result:
            The replay's :class:`~repro.serving.metrics.ServingResult`.
        plan:
            The injected :class:`~repro.faults.FaultPlan` (ground truth
            for detection scoring); ``None``/empty means unfaulted.
        telemetry:
            The run's :class:`~repro.telemetry.Telemetry` handle; with a
            recording handle, alerts become spans on the ``alerts``
            track and ``monitor_alerts_total`` counters.
        """
        if self.sampler is None:
            raise ValidationError(
                "monitor was never attached; pass it to serve()"
            )
        span_s = max(
            [r.completion_s for r in result.responses]
            + [s.time_s for s in result.sheds]
            + [f.time_s for f in result.fails]
            + [0.0]
        )
        self.sampler.finish(span_s)
        series: dict[str, TimeSeries] = self.sampler.series

        # Derived event series: the dashboard's raw panels.
        kinds = sorted({r.kind for r in result.responses})
        for kind in kinds:
            series[f"latency:{kind}"] = TimeSeries.from_events(
                f"latency:{kind}",
                (
                    (r.completion_s, r.latency_s)
                    for r in result.responses
                    if r.kind == kind
                ),
            )
        series["deadline_miss"] = TimeSeries.from_events(
            "deadline_miss",
            (
                (r.completion_s, 0.0 if r.met_deadline else 1.0)
                for r in result.responses
            ),
        )
        series["shed"] = TimeSeries.from_events(
            "shed", ((s.time_s, 1.0) for s in result.sheds)
        )

        availability = series.get(CARDS_UP_SERIES)
        statuses = tuple(
            evaluate_objective(
                objective,
                result,
                rules=self.config.rules,
                tick_s=self.config.tick_s,
                span_s=span_s,
                availability=availability,
                n_cards=self._n_cards,
            )
            for objective in self.config.objectives
        )
        alerts = tuple(
            sorted(
                (a for s in statuses for a in s.alerts),
                key=lambda a: (a.fired_s, a.objective),
            )
        )
        detection = None
        if plan is not None and not plan.is_empty:
            detection = score_detection(
                alerts,
                fault_intervals(plan, span_s),
                span_s=span_s,
                grace_s=self.config.grace_s,
            )
        self._publish(alerts, span_s, telemetry)
        self.result = MonitorResult(
            config=self.config,
            span_s=span_s,
            series=series,
            statuses=statuses,
            alerts=alerts,
            detection=detection,
        )
        return self.result

    def _publish(self, alerts, span_s: float, telemetry) -> None:
        """Mirror alerts into a recording telemetry handle."""
        if telemetry is None:
            return
        from repro.telemetry import NULL_TELEMETRY

        if telemetry is NULL_TELEMETRY:
            return
        recorder = telemetry.recorder
        for alert in alerts:
            end = alert.cleared_s if alert.cleared_s is not None else span_s
            if recorder.enabled:
                recorder.record(
                    f"alert:{alert.objective}",
                    alert.fired_s,
                    end,
                    track="alerts",
                    category="alert",
                    args={
                        "rule": alert.rule,
                        "peak_burn": round(alert.peak_burn, 3),
                    },
                )
            telemetry.metrics.counter(
                "monitor_alerts_total",
                "SLO burn-rate alerts fired",
                labels={"slo": alert.objective},
            ).inc()


# ----------------------------------------------------------------------
def monitor_result_dict(result: MonitorResult, *, series: bool = False) -> dict:
    """JSON-friendly dump of a monitor result.

    ``series=True`` inlines the full series bank (dashboard-sized);
    the default keeps the document golden-sized: budgets, alerts and
    detection only.
    """
    out = {
        "schema_version": MONITOR_SCHEMA_VERSION,
        "span_s": result.span_s,
        "tick_s": result.config.tick_s,
        "sample_period_s": result.config.sample_period_s,
        "slos": [s.to_dict() for s in result.statuses],
        "alerts": [a.to_dict() for a in result.alerts],
        "n_alerts": result.n_alerts,
        "breached": list(result.breached),
        "detection": (
            result.detection.to_dict() if result.detection is not None else None
        ),
    }
    if series:
        out["series"] = {
            name: s.to_dict() for name, s in sorted(result.series.items())
        }
    return out


def write_monitor_result(path, result: MonitorResult, *, series: bool = False):
    """Serialise :func:`monitor_result_dict` to ``path``; returns it."""
    path = Path(path)
    path.write_text(
        json.dumps(monitor_result_dict(result, series=series), indent=2) + "\n"
    )
    return path


def render_monitor_result(result: MonitorResult) -> str:
    """Text rendering of budgets, alerts and detection (deterministic)."""
    lines = [
        f"  monitor: {len(result.statuses)} SLO(s), "
        f"{result.n_alerts} alert(s), span {result.span_s * 1e3:.1f} ms"
    ]
    for status in result.statuses:
        mark = "ok " if status.met else "MISS"
        lines.append(
            f"    [{mark}] {status.objective.name:<18} "
            f"good {status.good_fraction:>8.3%}  "
            f"budget spent {status.budget_spent:>7.1%}  "
            f"alerts {len(status.alerts)}"
        )
    for alert in result.alerts:
        cleared = (
            f"cleared {alert.cleared_s * 1e3:.1f} ms"
            if alert.cleared_s is not None
            else "still firing"
        )
        lines.append(
            f"    alert {alert.objective}: fired {alert.fired_s * 1e3:.1f} ms, "
            f"{cleared}, peak burn {alert.peak_burn:.1f}x"
        )
    det = result.detection
    if det is not None:
        ttd = (
            f"{det.time_to_detect_s * 1e3:.1f} ms"
            if det.time_to_detect_s is not None
            else "never"
        )
        ttc = (
            f"{det.time_to_clear_s * 1e3:.1f} ms"
            if det.time_to_clear_s is not None
            else "n/a"
        )
        lines.append(
            f"    detection: {len(det.intervals)} fault interval(s), "
            f"TTD {ttd}, clear lag {ttc}, "
            f"FP {det.false_positives}, FN {det.false_negatives}"
        )
    return "\n".join(lines)
