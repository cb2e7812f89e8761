"""Exporters: Chrome trace-event JSON and the metrics snapshot.

* :func:`chrome_trace` — the Chrome trace-event format (the JSON that
  ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_ open
  directly).  Resource busy windows become complete (``"X"``) slices on
  one named track per resource; request-phase spans (those carrying a
  ``trace_id``) become async begin/end (``"b"``/``"e"``) pairs keyed by
  the trace id, so each request renders as its own lane of sequential
  phases.  Timestamps are microseconds of *simulated* time.
* :func:`metrics_snapshot` — a versioned JSON dump of a metrics
  registry (the ``--metrics-out`` body).

:func:`load_chrome_trace` inverts :func:`chrome_trace`, which is what
the ``repro-cds trace`` subcommand builds its summary from.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

from repro.errors import ValidationError
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "metrics_snapshot",
    "write_metrics_snapshot",
]

#: Simulated seconds → trace-event microseconds.
_US = 1e6

#: Version stamp carried in trace files and metrics snapshots so
#: downstream tooling can evolve the formats safely.
TELEMETRY_SCHEMA_VERSION = 1


def _resolve_spans(spans) -> tuple[Span, ...]:
    """Accept a recorder (anything with ``.spans``) or a span iterable."""
    inner = getattr(spans, "spans", None)
    if inner is not None:
        return tuple(inner)
    return tuple(spans)


def _track_order(spans: Sequence[Span]) -> list[str]:
    """Stable track → tid assignment: first-seen order of track names."""
    seen: list[str] = []
    for span in spans:
        track = span.track or "main"
        if track not in seen:
            seen.append(track)
    return seen


def chrome_trace(spans, *, process_name: str = "repro-cds") -> dict:
    """Build a Chrome trace-event payload from recorded spans.

    Parameters
    ----------
    spans:
        A :class:`~repro.telemetry.spans.SpanRecorder` or span iterable.
    process_name:
        Name shown for the single simulated process.

    Returns
    -------
    dict
        ``{"traceEvents": [...], "displayTimeUnit": "ms", ...}`` —
        serialise with :func:`json.dump` or :func:`write_chrome_trace`.
    """
    resolved = _resolve_spans(spans)
    tracks = _track_order(resolved)
    tid_of = {track: tid for tid, track in enumerate(tracks)}
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for track, tid in tid_of.items():
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
    for span in resolved:
        tid = tid_of[span.track or "main"]
        args = dict(span.args)
        if span.kind:
            args["kind"] = span.kind
        if span.trace_id is None:
            events.append(
                {
                    "ph": "X",
                    "pid": 0,
                    "tid": tid,
                    "name": span.name,
                    "cat": span.category or "span",
                    "ts": span.start_s * _US,
                    "dur": span.duration_s * _US,
                    "args": args,
                }
            )
        else:
            # Request phases: async begin/end keyed by the trace id, so
            # every request gets its own lane of sequential phases.
            common = {
                "pid": 0,
                "tid": tid,
                "name": span.name,
                "cat": span.category or "request",
                "id": span.trace_id,
            }
            events.append(
                {**common, "ph": "b", "ts": span.start_s * _US, "args": args}
            )
            events.append({**common, "ph": "e", "ts": span.end_s * _US})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "clock": "simulated",
        },
    }


def write_chrome_trace(path, spans, *, process_name: str = "repro-cds") -> Path:
    """Serialise :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(spans, process_name=process_name)))
    return path


def load_chrome_trace(source) -> tuple[Span, ...]:
    """Rebuild spans from a Chrome trace-event payload.

    The inverse of :func:`chrome_trace` for payloads it wrote (complete
    slices plus async begin/end pairs); the trace summariser runs on the
    result.  Accepts a path or an already-parsed payload dict.
    """
    if isinstance(source, (str, Path)):
        payload = json.loads(Path(source).read_text())
    else:
        payload = source
    events = payload.get("traceEvents")
    if events is None:
        raise ValidationError("not a trace-event payload: no traceEvents key")
    track_of_tid: dict[int, str] = {}
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            track_of_tid[ev["tid"]] = ev["args"]["name"]

    spans: list[Span] = []
    open_async: dict[tuple, dict] = {}
    for ev in events:
        ph = ev.get("ph")
        if ph == "X":
            args = dict(ev.get("args", {}))
            kind = args.pop("kind", "")
            spans.append(
                Span(
                    name=ev["name"],
                    start_s=ev["ts"] / _US,
                    end_s=(ev["ts"] + ev.get("dur", 0.0)) / _US,
                    track=track_of_tid.get(ev["tid"], str(ev["tid"])),
                    category=ev.get("cat", ""),
                    kind=kind,
                    args=args,
                )
            )
        elif ph == "b":
            open_async[(ev["id"], ev["name"], ev["ts"])] = ev
        elif ph == "e":
            # Pair with the earliest still-open begin of the same id+name.
            match = min(
                (key for key in open_async if key[0] == ev["id"]
                 and key[1] == ev["name"] and key[2] <= ev["ts"]),
                default=None,
                key=lambda key: key[2],
            )
            if match is None:
                raise ValidationError(
                    f"unmatched async end for trace id {ev['id']!r}"
                )
            begin = open_async.pop(match)
            args = dict(begin.get("args", {}))
            kind = args.pop("kind", "")
            spans.append(
                Span(
                    name=begin["name"],
                    start_s=begin["ts"] / _US,
                    end_s=ev["ts"] / _US,
                    track=track_of_tid.get(begin["tid"], str(begin["tid"])),
                    category=begin.get("cat", ""),
                    trace_id=begin["id"],
                    kind=kind,
                    args=args,
                )
            )
    if open_async:
        raise ValidationError(
            f"{len(open_async)} async span(s) never ended in trace payload"
        )
    spans.sort(key=lambda s: (s.start_s, s.end_s, s.track, s.name))
    return tuple(spans)


# ----------------------------------------------------------------------
def metrics_snapshot(registry: MetricsRegistry) -> dict:
    """Versioned JSON-friendly registry dump (the ``--metrics-out`` body).

    ``metrics`` maps rendered keys (labels included) to typed values;
    key order is sorted, so two runs of the same configuration produce
    the same schema — which is what the committed metrics-schema test
    pins.
    """
    return {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "metrics": registry.snapshot(),
    }


def write_metrics_snapshot(path, registry: MetricsRegistry) -> Path:
    """Serialise :func:`metrics_snapshot` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(metrics_snapshot(registry), indent=2) + "\n")
    return path
