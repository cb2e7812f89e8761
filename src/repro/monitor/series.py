"""Time series over the simulated clock: points, windows, aggregates.

A :class:`TimeSeries` is the monitor's unit of storage: a monotone
sequence of ``(t, value)`` points on the *simulated* clock, produced
either by the :class:`~repro.monitor.sampler.MetricsSampler` (registry
snapshots on a fixed cadence) or derived post-run from a serving
result's event streams (per-request latencies, sheds, failures).

Aggregation is windowed, the way a real monitoring stack reads raw
series:

* :meth:`TimeSeries.tumbling` — contiguous fixed-width buckets, one
  aggregate per bucket (the dashboard's sparkline resolution);
* :meth:`TimeSeries.sliding` — one aggregate per step over a trailing
  window (the SLO engine's burn-rate view);
* :meth:`TimeSeries.rate` — the counter-to-rate transform: per-second
  increase between consecutive samples, the Prometheus ``rate()``
  analogue for a monotone counter series.

Aggregators are plain names (``mean``/``min``/``max``/``sum``/
``count``/``last``) plus ``p<q>`` percentiles (``p50``, ``p99``, …),
computed exactly over the window by :func:`numpy.percentile` — windows
are bounded, so streaming estimation is unnecessary here (the P²
estimators stay in :mod:`repro.telemetry.metrics`, where streams are
unbounded).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.validation import check_positive_finite
from repro.errors import ValidationError

__all__ = ["Point", "TimeSeries"]


def _aggregate(values: Sequence[float], how: str) -> float:
    if how == "count":
        return float(len(values))
    if not values:
        return math.nan
    if how == "mean":
        return sum(values) / len(values)
    if how == "min":
        return min(values)
    if how == "max":
        return max(values)
    if how == "sum":
        return sum(values)
    if how == "last":
        return values[-1]
    if how.startswith("p"):
        try:
            level = float(how[1:])
        except ValueError:
            level = math.nan
        if 0.0 <= level <= 100.0:
            return float(np.percentile(values, level))
    raise ValidationError(f"unknown aggregator {how!r}")


class Point:
    """One sample: ``(t, value)`` on the simulated clock."""

    __slots__ = ("t", "value")

    def __init__(self, t: float, value: float) -> None:
        self.t = float(t)
        self.value = float(value)

    def __iter__(self):
        return iter((self.t, self.value))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Point(t={self.t!r}, value={self.value!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Point)
            and self.t == other.t
            and self.value == other.value
        )


class TimeSeries:
    """An append-only series of points with non-decreasing timestamps.

    Parameters
    ----------
    name:
        Series identity (metric key, probe name, or derived-series
        label).
    kind:
        ``"gauge"`` (point-in-time level), ``"counter"`` (monotone
        cumulative total) or ``"event"`` (one point per occurrence,
        value = the observation).  Purely descriptive — it records how
        the series should be read and is carried into exports.
    """

    def __init__(self, name: str, kind: str = "gauge") -> None:
        if kind not in ("gauge", "counter", "event"):
            raise ValidationError(
                f"series kind must be gauge/counter/event, got {kind!r}"
            )
        self.name = name
        self.kind = kind
        self._times: list[float] = []
        self._values: list[float] = []

    # ------------------------------------------------------------------
    def append(self, t: float, value: float) -> None:
        """Append one point; timestamps must not decrease."""
        t = float(t)
        if self._times and t < self._times[-1]:
            raise ValidationError(
                f"series {self.name!r}: time went backwards "
                f"({t} < {self._times[-1]})"
            )
        self._times.append(t)
        self._values.append(float(value))

    def extend(self, points: Iterable[tuple[float, float]]) -> None:
        """Append points in order."""
        for t, value in points:
            self.append(t, value)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._times)

    def __bool__(self) -> bool:
        return bool(self._times)

    @property
    def times(self) -> tuple[float, ...]:
        """Timestamps, in order."""
        return tuple(self._times)

    @property
    def values(self) -> tuple[float, ...]:
        """Values, in order."""
        return tuple(self._values)

    @property
    def points(self) -> tuple[Point, ...]:
        """All points, in order."""
        return tuple(
            Point(t, v) for t, v in zip(self._times, self._values)
        )

    @property
    def start_s(self) -> float:
        """First timestamp (nan when empty)."""
        return self._times[0] if self._times else math.nan

    @property
    def end_s(self) -> float:
        """Last timestamp (nan when empty)."""
        return self._times[-1] if self._times else math.nan

    def value_at(self, t: float) -> float:
        """Step-function lookup: the last value at or before ``t``.

        ``nan`` before the first point — a gauge has no level until it
        is first sampled.
        """
        i = bisect_right(self._times, t)
        if i == 0:
            return math.nan
        return self._values[i - 1]

    def between(self, start_s: float, end_s: float) -> list[float]:
        """Values of points with ``start_s < t <= end_s``.

        Windows are half-open on the left so that tumbling buckets tile
        the timeline without double-counting boundary points, and so a
        trailing window anchored at ``t`` includes the sample *at* ``t``.
        """
        lo = bisect_right(self._times, start_s)
        hi = bisect_right(self._times, end_s)
        return self._values[lo:hi]

    # ------------------------------------------------------------------
    def tumbling(
        self, width_s: float, how: str = "mean", *,
        start_s: float = 0.0, end_s: float | None = None,
    ) -> "TimeSeries":
        """Aggregate into contiguous fixed-width buckets.

        Each output point sits at its bucket's *right edge* and holds
        the aggregate of the samples inside ``(edge - width, edge]``.
        Empty buckets aggregate to ``nan`` (``0`` for ``count``), so
        gaps stay visible instead of being interpolated away.
        """
        check_positive_finite(width_s, "width_s")
        stop = end_s if end_s is not None else self.end_s
        out = TimeSeries(f"{self.name}[{how}/{width_s:g}s]", kind="gauge")
        if not self._times or math.isnan(stop):
            return out
        edge = start_s + width_s
        while edge - width_s < stop:
            out.append(edge, _aggregate(self.between(edge - width_s, edge), how))
            edge += width_s
        return out

    def sliding(
        self, width_s: float, step_s: float, how: str = "mean", *,
        start_s: float = 0.0, end_s: float | None = None,
    ) -> "TimeSeries":
        """Aggregate a trailing window at every step.

        Each output point at ``t`` aggregates the samples in
        ``(t - width, t]``; consecutive output points are ``step_s``
        apart, so windows overlap whenever ``step_s < width_s``.
        """
        check_positive_finite(width_s, "width_s")
        check_positive_finite(step_s, "step_s")
        stop = end_s if end_s is not None else self.end_s
        out = TimeSeries(
            f"{self.name}[{how}/{width_s:g}s@{step_s:g}s]", kind="gauge"
        )
        if not self._times or math.isnan(stop):
            return out
        t = start_s + step_s
        while t - step_s < stop:
            out.append(t, _aggregate(self.between(t - width_s, t), how))
            t += step_s
        return out

    def rate(self) -> "TimeSeries":
        """Per-second increase between consecutive samples of a counter.

        The output point at ``t_i`` is ``(v_i - v_{i-1}) / (t_i -
        t_{i-1})`` — the Prometheus ``rate()`` analogue at sample
        resolution.  Requires a ``counter`` series; decreases raise
        (simulated counters never reset mid-run).
        """
        if self.kind != "counter":
            raise ValidationError(
                f"rate() needs a counter series, {self.name!r} is "
                f"{self.kind!r}"
            )
        out = TimeSeries(f"rate({self.name})", kind="gauge")
        for i in range(1, len(self._times)):
            dt = self._times[i] - self._times[i - 1]
            dv = self._values[i] - self._values[i - 1]
            if not dv >= 0:
                raise ValidationError(
                    f"counter series {self.name!r} decreased at "
                    f"t={self._times[i]}"
                )
            if dt > 0:
                out.append(self._times[i], dv / dt)
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-friendly dump (floats stay floats; order preserved)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "t": list(self._times),
            "v": list(self._values),
        }

    @classmethod
    def from_events(
        cls, name: str, events: Iterable[tuple[float, float]]
    ) -> "TimeSeries":
        """Build an event series from ``(t, value)`` pairs (sorted here)."""
        series = cls(name, kind="event")
        for t, value in sorted(events, key=lambda p: p[0]):
            series.append(t, value)
        return series

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeSeries({self.name!r}, {self.kind}, {len(self)} point(s))"
