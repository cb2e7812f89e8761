"""Label escaping: hostile label values stay distinct snapshot keys.

Label values such as tenant names come from outside the program; the
metrics snapshot must still key each one by itself, through a JSON
round trip.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    MetricsRegistry,
    escape_label_value,
    metric_key,
    metrics_snapshot,
    write_metrics_snapshot,
)

#: The three reserved characters, alone and combined, plus traps like a
#: literal ``\n`` sequence (must stay distinct from a real newline).
HOSTILE_VALUES = [
    'plain',
    'has"quote',
    "has\\backslash",
    "has\nnewline",
    'all\\three"\nat once',
    "\\n",  # literal backslash-n, NOT a newline
    'trailing\\',
    '',
]


class TestEscape:
    def test_escapes_the_reserved_three(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"

    def test_backslash_first(self):
        # A literal \n must become \\n, not collapse into a newline
        # escape.
        assert escape_label_value("\\n") == "\\\\n"

    def test_metric_key_is_single_line(self):
        key = metric_key("m", {"k": 'v"with\n\\everything'})
        assert "\n" not in key
        assert key.startswith("m{")

    def test_distinct_values_stay_distinct_keys(self):
        # Unescaped rendering would collapse these two.
        a = metric_key("m", {"k": "x\ny"})
        b = metric_key("m", {"k": "x\\ny"})
        assert a != b


class TestRoundTrip:
    @pytest.mark.parametrize("value", HOSTILE_VALUES)
    def test_label_value_round_trips(self, value):
        registry = MetricsRegistry()
        for i, v in enumerate(HOSTILE_VALUES):
            registry.counter("m_total", labels={"k": v}).inc(i + 1)
        snap = json.loads(json.dumps(metrics_snapshot(registry)))["metrics"]
        assert len(snap) == len(HOSTILE_VALUES)
        key = metric_key("m_total", {"k": value})
        count = HOSTILE_VALUES.index(value) + 1.0
        assert snap[key] == {"type": "counter", "value": count}

    def test_multiple_labels_round_trip(self):
        registry = MetricsRegistry()
        labels = {"a": 'x"1', "b": "y\\2", "c": "z\n3"}
        registry.gauge("g", labels=labels).set(1.5)
        snap = json.loads(json.dumps(metrics_snapshot(registry)))
        assert snap["metrics"] == {
            metric_key("g", labels): {"type": "gauge", "value": 1.5}
        }
        assert metric_key("g", labels) == 'g{a="x\\"1",b="y\\\\2",c="z\\n3"}'

    def test_written_snapshot_keeps_every_key(self, tmp_path):
        registry = MetricsRegistry()
        for i, value in enumerate(HOSTILE_VALUES):
            registry.counter(
                "evil_total", labels={"k": value, "i": str(i)}
            ).inc()
        path = write_metrics_snapshot(tmp_path / "metrics.json", registry)
        keys = set(json.loads(path.read_text())["metrics"])
        assert keys == {
            metric_key("evil_total", {"k": value, "i": str(i)})
            for i, value in enumerate(HOSTILE_VALUES)
        }
        assert len(keys) == len(HOSTILE_VALUES)
        assert not any("\n" in key for key in keys)

    def test_types_reported(self):
        registry = MetricsRegistry()
        labels = {"tenant": 'a"b\nc'}
        registry.counter("c_total", labels=labels).inc()
        registry.gauge("g", labels=labels).set(1.0)
        registry.histogram("h_seconds", labels=labels).observe(0.5)
        snap = json.loads(json.dumps(metrics_snapshot(registry)))["metrics"]
        assert {key: entry["type"] for key, entry in snap.items()} == {
            metric_key("c_total", labels): "counter",
            metric_key("g", labels): "gauge",
            metric_key("h_seconds", labels): "histogram",
        }
