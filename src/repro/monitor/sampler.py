"""The metrics sampler: registry snapshots on a simulated-time cadence.

:class:`MetricsSampler` is the bridge from the live
:class:`~repro.telemetry.MetricsRegistry` (counters incremented inside
event callbacks) to the monitor's :class:`~repro.monitor.series.
TimeSeries` bank.  It rides the :class:`~repro.sim.Simulation` trace
hook rather than scheduling its own events: hooks fire after the clock
advances to an event's instant but *before* the event's callback runs,
so when the clock first reaches or passes a grid boundary ``g``, the
registry still holds exactly the state produced by every event strictly
before ``g`` — the sampler emits the boundary sample from that state
without perturbing the event queue at all.  A monitored replay is
therefore event-for-event identical to an unmonitored one, which is
what keeps the byte-identity pin trivial to honour.

Besides registry metrics the sampler reads **probes** — callables
``t -> float`` sampled at each boundary.  The serving layer registers a
``cards_up`` probe from the run's :class:`~repro.faults.ClusterHealth`
(pure arithmetic over the fault plan), which is the availability signal
the SLO engine uses to detect a card crash from sampled data alone.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.core.validation import check_positive_finite
from repro.errors import ValidationError
from repro.monitor.series import TimeSeries
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry

__all__ = ["MetricsSampler"]


class MetricsSampler:
    """Snapshot registry metrics and probes on a fixed simulated cadence.

    Parameters
    ----------
    registry:
        The run-local registry to observe (read-only).
    period_s:
        Grid spacing; samples land at ``period_s, 2*period_s, ...``.
    names:
        Metric names to track (bare names: every labelled variant whose
        bare name matches is tracked as its own series).  ``None``
        tracks every counter and gauge present at each boundary.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        period_s: float,
        names: tuple[str, ...] | None = None,
    ) -> None:
        check_positive_finite(period_s, "period_s")
        self.registry = registry
        self.period_s = float(period_s)
        self.names = names
        self._probes: dict[str, Callable[[float], float]] = {}
        self._series: dict[str, TimeSeries] = {}
        self._next_edge = self.period_s
        self._finished = False

    # ------------------------------------------------------------------
    def add_probe(self, name: str, probe: Callable[[float], float]) -> None:
        """Register a probe sampled at every grid boundary."""
        if name in self._probes:
            raise ValidationError(f"probe {name!r} already registered")
        self._probes[name] = probe

    def attach(self, sim) -> None:
        """Hook the sampler onto a simulation's trace stream."""
        sim.add_trace(self._on_event)

    # ------------------------------------------------------------------
    def _tracked(self) -> Mapping[str, Counter | Gauge]:
        out = {}
        for key, metric in self.registry.items():
            if isinstance(metric, (Counter, Gauge)):
                bare = key.partition("{")[0]
                if self.names is None or bare in self.names:
                    out[key] = metric
        return out

    def _emit(self, edge: float) -> None:
        for key, metric in self._tracked().items():
            series = self._series.get(key)
            if series is None:
                kind = "counter" if isinstance(metric, Counter) else "gauge"
                series = self._series[key] = TimeSeries(key, kind=kind)
            series.append(edge, metric.value)
        for name, probe in self._probes.items():
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = TimeSeries(name, kind="gauge")
            series.append(edge, float(probe(edge)))

    def _on_event(self, event) -> None:
        # The clock has advanced to event.time; the registry holds the
        # state of everything strictly before it.  Emit every boundary
        # the clock just crossed (<= so a callback *at* the boundary is
        # not yet included — the sample is "as of" the boundary).
        if self._finished:
            return
        while self._next_edge <= event.time:
            self._emit(self._next_edge)
            self._next_edge += self.period_s

    def finish(self, end_s: float) -> None:
        """Flush boundaries up to and including the end of the run.

        Called once after the event loop drains; boundaries in
        ``(last_emitted, end_s]`` sample the final registry state.
        Idempotent — a second call is a no-op.
        """
        if self._finished:
            return
        while self._next_edge <= end_s:
            self._emit(self._next_edge)
            self._next_edge += self.period_s
        self._finished = True

    # ------------------------------------------------------------------
    @property
    def series(self) -> dict[str, TimeSeries]:
        """The sampled series bank, keyed by metric key / probe name."""
        return dict(self._series)

    def get(self, name: str) -> TimeSeries | None:
        """One series by key (``None`` when never sampled)."""
        return self._series.get(name)
