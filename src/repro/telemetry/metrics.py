"""The metrics registry: counters, gauges and exact histograms.

One process-local registry replaces the ad-hoc tallies that used to live
inside each layer (serving's batch counters, the risk grid's dispatch
sum): code paths increment named metrics while they run, report
dataclasses read those metrics back, and
:func:`~repro.telemetry.export.metrics_snapshot` serialises the registry
as JSON.

A :class:`Histogram` keeps its observations and reads quantiles with
NumPy's default (linear) rule, the rule
:class:`~repro.serving.metrics.LatencyStats` uses: a published latency
quantile equals the report's.

Metrics may carry labels; a labelled metric's registry key renders as
``name{k="v",...}`` with keys sorted, which keeps snapshots
deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.core.validation import check_range
from repro.errors import ValidationError

__all__ = [
    "Counter",
    "CounterFamily",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "escape_label_value",
    "metric_key",
]

#: Quantile levels a histogram snapshot reports.
SNAPSHOT_QUANTILES = (0.5, 0.95, 0.99)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double quote and newline are the three characters the
    format reserves inside quoted label values; everything else passes
    through verbatim.  Order matters: backslashes first, or the escapes
    themselves would be re-escaped.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def metric_key(name: str, labels: Mapping[str, str] | None = None) -> str:
    """Registry key for a metric: ``name`` or ``name{k="v",...}``.

    Label keys render sorted, so logically-equal label sets map to one
    key and snapshots are deterministic.  Values are escaped per the
    exposition format (:func:`escape_label_value`), so a value holding
    a quote, backslash or newline still renders as one well-formed key
    — and two values that differ only in those characters stay two
    distinct keys.
    """
    if not name:
        raise ValidationError("metric name must be non-empty")
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically-increasing tally."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters never go down)."""
        if not amount >= 0:
            raise ValidationError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self._value += amount

    def snapshot(self) -> float:
        """JSON-friendly value."""
        return self._value


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Last value set."""
        return self._value

    def set(self, value: float) -> None:
        """Record the current level."""
        self._value = float(value)

    def snapshot(self) -> float:
        """JSON-friendly value."""
        return self._value


class Histogram:
    """A distribution that keeps every observation.

    Memory is one float per observation.  Two histograms run:
    ``serving_latency_seconds`` (every completed request, observed once
    per replay from the result's responses) and
    ``kernel_chunk_wall_seconds`` (one observation per kernel chunk).
    :meth:`quantile` is :func:`numpy.quantile`'s default linear rule,
    which is exactly ``LatencyStats``' ``np.percentile(lat, 100 * q)``.
    """

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []

    def observe(self, x: float) -> None:
        """Record one observation."""
        self._values.append(float(x))

    def observe_many(self, xs: Iterable[float]) -> None:
        """Record a batch of observations, in order."""
        self._values.extend(map(float, xs))

    @property
    def count(self) -> int:
        """Observations so far."""
        return len(self._values)

    @property
    def sum(self) -> float:
        """Total, added left to right in observation order."""
        total = 0.0
        for x in self._values:
            total += x
        return total

    @property
    def min(self) -> float:
        """Smallest observation (``inf`` when empty)."""
        return min(self._values, default=float("inf"))

    @property
    def max(self) -> float:
        """Largest observation (``-inf`` when empty)."""
        return max(self._values, default=float("-inf"))

    def quantile(self, q: float) -> float:
        """The ``q`` quantile by NumPy's linear rule (``nan`` when empty)."""
        check_range(q, "quantile", "(0, 1)")
        if not self._values:
            return float("nan")
        return float(np.quantile(self._values, q))

    def snapshot(self) -> dict:
        """JSON-friendly summary (an empty histogram reports nulls)."""
        empty = not self._values
        return {
            "count": self.count,
            "sum": self.sum,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "quantiles": {
                str(q): None if empty else self.quantile(q)
                for q in SNAPSHOT_QUANTILES
            },
        }


class CounterFamily(dict):
    """One metric's counters across the values of one label.

    Indexing by a label value returns that value's :class:`Counter` in
    ``registry``, registered on first use: a hot path formats each key
    once and then pays one dict lookup per increment, and the registry
    only ever holds label values that were counted.
    """

    def __init__(self, registry: MetricsRegistry, name: str, *,
                 label: str) -> None:
        super().__init__()
        self._registry = registry
        self._name = name
        self._label = label

    def __missing__(self, value) -> Counter:
        counter = self[value] = self._registry.counter(
            self._name, labels={self._label: str(value)}
        )
        return counter


class MetricsRegistry:
    """Named metrics, get-or-create, deterministically ordered.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric
    when the (name, labels) key is already registered — re-registration
    with a different metric type raises.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, key: str):
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValidationError(
                    f"metric {key!r} is a {existing.kind}, not a "
                    f"{cls.kind}"
                )
            return existing
        metric = self._metrics[key] = cls(key)
        return metric

    def counter(
        self, name: str, *, labels: Mapping[str, str] | None = None
    ) -> Counter:
        """Get or create a counter."""
        return self._get_or_create(Counter, metric_key(name, labels))

    def gauge(
        self, name: str, *, labels: Mapping[str, str] | None = None
    ) -> Gauge:
        """Get or create a gauge."""
        return self._get_or_create(Gauge, metric_key(name, labels))

    def histogram(
        self, name: str, *, labels: Mapping[str, str] | None = None
    ) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(Histogram, metric_key(name, labels))

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> tuple[str, ...]:
        """Registered keys, sorted (the stable schema of a snapshot)."""
        return tuple(sorted(self._metrics))

    def get(self, key: str) -> Counter | Gauge | Histogram:
        """Look up one metric by its rendered key."""
        if key not in self._metrics:
            raise ValidationError(f"no metric registered under {key!r}")
        return self._metrics[key]

    def items(self):
        """``(key, metric)`` pairs in sorted-key order."""
        return ((k, self._metrics[k]) for k in self.names())

    def snapshot(self) -> dict:
        """JSON-friendly dump: ``{key: {"type": ..., "value": ...}}``."""
        return {
            key: {"type": metric.kind, "value": metric.snapshot()}
            for key, metric in self.items()
        }

    def absorb(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counters and gauges into this one.

        Counters add, gauges overwrite — the publish step of a run-local
        registry into a session-level one.  Histograms are refused:
        observe the stream on the target registry instead.
        """
        for key, metric in other.items():
            if isinstance(metric, Counter):
                self.counter(metric.name).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(metric.name).set(metric.value)
            else:
                raise ValidationError(
                    f"cannot absorb histogram {key!r}: observe its stream "
                    "on the target registry"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry({len(self._metrics)} metric(s))"
