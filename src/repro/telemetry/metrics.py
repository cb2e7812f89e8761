"""The metrics registry: counters, gauges, streaming-quantile histograms.

One process-local registry replaces the ad-hoc tallies that used to live
inside each layer (serving's batch counters, the risk grid's dispatch
sum, the cluster roll-up): code paths increment named metrics while they
run, report dataclasses read those metrics back, and the exporters
(:mod:`repro.telemetry.export`) serialise the registry as a Prometheus
text exposition or a JSON snapshot.

Quantiles stream.  :class:`Histogram` keeps exact ``count``/``sum``/
``min``/``max`` plus one P² estimator (Jain & Chlamtac, 1985) per
tracked quantile, so a million latency observations cost five markers
each instead of a stored vector.  Report percentiles that must stay
bit-identical to their pre-registry values (``LatencyStats``) keep using
exact vectors; the streaming histograms serve the export path, where an
estimate over an unbounded stream is the point.

Metrics may carry Prometheus-style labels; a labelled metric's registry
key renders as ``name{k="v",...}`` with keys sorted, which keeps
snapshots deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

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

#: Quantiles a histogram tracks unless told otherwise.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


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

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
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

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
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


class _P2Quantile:
    """One streaming quantile: the P² algorithm (Jain & Chlamtac, 1985).

    Five markers track the running estimate of quantile ``q`` in O(1)
    memory and time per observation.  Until five observations arrive the
    estimate is exact (sorted-buffer interpolation).
    """

    def __init__(self, q: float) -> None:
        check_range(q, "quantile", "(0, 1)")
        self.q = q
        self._heights: list[float] = []  # marker heights (or warm-up buffer)
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2 * q, 1.0 + 4 * q, 3.0 + 2 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.n = 0

    def observe(self, x: float) -> None:
        """Fold one observation into the estimate."""
        self.n += 1
        if self.n <= 5:
            self._heights.append(x)
            if self.n == 5:
                self._heights.sort()
            return
        h = self._heights
        # Cell containing x; clamp the extremes to x itself.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]
        # Adjust the three interior markers toward their desired spots.
        for i in range(1, 4):
            d = self._desired[i] - self._positions[i]
            pos, prev_pos, next_pos = (
                self._positions[i],
                self._positions[i - 1],
                self._positions[i + 1],
            )
            if (d >= 1.0 and next_pos - pos > 1.0) or (
                d <= -1.0 and prev_pos - pos < -1.0
            ):
                step = 1.0 if d >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                self._positions[i] += step

    def _parabolic(self, i: int, d: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + d / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, d: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(d)
        return h[i] + d * (h[j] - h[i]) / (p[j] - p[i])

    @property
    def value(self) -> float:
        """Current estimate (``nan`` before any observation)."""
        if self.n == 0:
            return float("nan")
        if self.n <= 5:
            ordered = sorted(self._heights)
            # Exact linear interpolation over the warm-up buffer.
            rank = self.q * (len(ordered) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        return self._heights[2]


class Histogram:
    """Streaming distribution summary: exact moments, P² quantiles.

    Parameters
    ----------
    name / help_text:
        Identity in the registry and expositions.
    quantiles:
        Quantile levels to track (default ``(0.5, 0.95, 0.99)``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        *,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.quantiles = tuple(quantiles)
        if not self.quantiles:
            raise ValidationError(f"histogram {name!r} needs >= 1 quantile")
        self._estimators = {q: _P2Quantile(q) for q in self.quantiles}
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, x: float) -> None:
        """Fold one observation into every tracked statistic."""
        x = float(x)
        self.count += 1
        self.sum += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        for est in self._estimators.values():
            est.observe(x)

    def observe_many(self, xs: Iterable[float]) -> None:
        """Fold a batch of observations, in order."""
        for x in xs:
            self.observe(x)

    def quantile(self, q: float) -> float:
        """Current estimate of a tracked quantile level."""
        if q not in self._estimators:
            raise ValidationError(
                f"histogram {self.name!r} does not track q={q}; "
                f"tracked: {self.quantiles}"
            )
        return self._estimators[q].value

    @property
    def mean(self) -> float:
        """Running mean (``nan`` when empty)."""
        return self.sum / self.count if self.count else float("nan")

    def snapshot(self) -> dict:
        """JSON-friendly summary (empty streams report null-ish floats)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.sum,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "quantiles": {
                str(q): (None if empty else self._estimators[q].value)
                for q in self.quantiles
            },
        }


class CounterFamily(dict):
    """One metric's counters across the values of one label.

    Indexing by a label value returns that value's :class:`Counter` in
    ``registry``, registered on first use: a hot path formats each key
    once and then pays one dict lookup per increment, and the registry
    only ever holds label values that were counted.
    """

    def __init__(self, registry: MetricsRegistry, name: str,
                 help_text: str = "", *, label: str) -> None:
        super().__init__()
        self._registry = registry
        self._name = name
        self._help_text = help_text
        self._label = label

    def __missing__(self, value) -> Counter:
        counter = self[value] = self._registry.counter(
            self._name, self._help_text, labels={self._label: str(value)}
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
    def _get_or_create(self, cls, key: str, factory):
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValidationError(
                    f"metric {key!r} is a {existing.kind}, not a "
                    f"{cls.kind}"
                )
            return existing
        metric = factory()
        self._metrics[key] = metric
        return metric

    def counter(
        self,
        name: str,
        help_text: str = "",
        *,
        labels: Mapping[str, str] | None = None,
    ) -> Counter:
        """Get or create a counter."""
        key = metric_key(name, labels)
        return self._get_or_create(Counter, key, lambda: Counter(key, help_text))

    def gauge(
        self,
        name: str,
        help_text: str = "",
        *,
        labels: Mapping[str, str] | None = None,
    ) -> Gauge:
        """Get or create a gauge."""
        key = metric_key(name, labels)
        return self._get_or_create(Gauge, key, lambda: Gauge(key, help_text))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
    ) -> Histogram:
        """Get or create a streaming-quantile histogram."""
        key = metric_key(name, labels)
        return self._get_or_create(
            Histogram, key, lambda: Histogram(key, help_text, quantiles=quantiles)
        )

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
        registry into a session-level one.  Histograms cannot be merged
        (P² markers do not compose); re-observe the underlying stream on
        the target registry instead.
        """
        for key, metric in other.items():
            if isinstance(metric, Counter):
                self.counter(metric.name, metric.help_text).inc(metric.value)
            elif isinstance(metric, Gauge):
                self.gauge(metric.name, metric.help_text).set(metric.value)
            else:
                raise ValidationError(
                    f"cannot absorb histogram {key!r}: P² estimators do "
                    "not merge; observe the stream on the target registry"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry({len(self._metrics)} metric(s))"
