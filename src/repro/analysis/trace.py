"""The trace report: where simulated time went, summarised offline.

``repro-cds serve/risk/simulate --trace-out`` write a Chrome trace-event
JSON; this module is the other half of that round trip — ``repro-cds
trace FILE`` loads the file back into spans and answers the three
questions a latency investigation starts with:

* **critical path** — the slowest requests end to end, with each one's
  latency broken into its sequential phases (coalesce wait, host-link
  dispatch, card queue, card service);
* **busy share** — which resource tracks (host link, each card) were
  busiest over the trace span;
* **queue wait by kind** — how long each workload class (quote, reval,
  var, risk refreshes) sat waiting (coalescer plus card queue) before
  any card touched it.

Follows the :mod:`repro.analysis.serving` pattern: one ``summarise_*``
call on the payload, a deterministic text rendering, a JSON-friendly
dict.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.telemetry import Span, load_chrome_trace

__all__ = [
    "KindWait",
    "RequestPath",
    "TraceSummary",
    "TrackBusy",
    "render_trace_summary",
    "summarise_trace",
    "trace_summary_dict",
]

#: Request phases in pipeline order (the order they tile a latency).
PHASE_ORDER = ("coalesce", "host_link", "card_queue", "card_service")

#: Phases that count as *waiting* (no card is pricing the request yet).
WAIT_PHASES = ("coalesce", "card_queue")


@dataclass(frozen=True)
class RequestPath:
    """One request's end-to-end path through the pipeline.

    Attributes
    ----------
    trace_id / kind:
        Request identity and workload class.
    start_s / end_s / latency_s:
        Earliest phase start, latest phase end, and their difference
        (the request's simulated latency).
    phases:
        Phase name → seconds, in :data:`PHASE_ORDER` where present.
    """

    trace_id: int
    kind: str
    start_s: float
    end_s: float
    latency_s: float
    phases: tuple[tuple[str, float], ...]

    @property
    def wait_s(self) -> float:
        """Seconds spent in the waiting phases (coalesce + card queue)."""
        return sum(d for name, d in self.phases if name in WAIT_PHASES)


@dataclass(frozen=True)
class TrackBusy:
    """Busy roll-up for one resource track (host link or one card)."""

    track: str
    n_spans: int
    busy_seconds: float
    busy_share: float


@dataclass(frozen=True)
class KindWait:
    """Queue-wait roll-up for one workload class."""

    kind: str
    n_requests: int
    mean_wait_s: float
    p95_wait_s: float
    max_wait_s: float
    mean_latency_s: float


@dataclass(frozen=True)
class TraceSummary:
    """Everything the ``repro-cds trace`` subcommand prints.

    Attributes
    ----------
    n_spans / n_requests / n_shed:
        Raw span count, completed requests reconstructed, sheds seen.
    span_seconds:
        Trace extent: latest span end minus earliest span start.
    critical_path:
        The ``top`` slowest requests, slowest first.
    tracks:
        Resource tracks by descending busy share.
    kinds:
        Per-workload queue-wait roll-up, by kind name.
    """

    n_spans: int
    n_requests: int
    n_shed: int
    span_seconds: float
    critical_path: tuple[RequestPath, ...]
    tracks: tuple[TrackBusy, ...]
    kinds: tuple[KindWait, ...]


def summarise_trace(source, *, top: int = 10) -> TraceSummary:
    """Summarise a Chrome trace payload written by ``--trace-out``.

    Parameters
    ----------
    source:
        Path to the trace JSON, an already-parsed payload dict, or an
        iterable of :class:`~repro.telemetry.Span` (a recorder works).
    top:
        Critical-path depth: how many of the slowest requests to keep.

    Returns
    -------
    TraceSummary
        Deterministic roll-up (ties broken by trace id / track name).
    """
    if top < 1:
        raise ValidationError(f"top must be >= 1, got {top}")
    if isinstance(source, (list, tuple)) and (
        not source or isinstance(source[0], Span)
    ):
        spans: tuple[Span, ...] = tuple(source)
    elif hasattr(source, "spans"):
        spans = tuple(source.spans)
    else:
        try:
            spans = load_chrome_trace(source)
        except OSError as exc:
            raise ValidationError(f"cannot read trace: {exc}") from exc
        except ValueError as exc:  # json.JSONDecodeError subclasses this
            raise ValidationError(f"not a JSON trace payload: {exc}") from exc
    if not spans:
        raise ValidationError("trace holds no spans; was recording enabled?")

    extent_start = min(s.start_s for s in spans)
    extent_end = max(s.end_s for s in spans)
    span_seconds = extent_end - extent_start

    # --- requests: group phase spans by trace id ----------------------
    by_trace: dict[int, list[Span]] = defaultdict(list)
    n_shed = 0
    for s in spans:
        if s.trace_id is None:
            continue
        if s.name == "shed":
            n_shed += 1
            continue
        by_trace[s.trace_id].append(s)
    requests: list[RequestPath] = []
    for trace_id in sorted(by_trace):
        group = by_trace[trace_id]
        durations = {s.name: s.duration_s for s in group}
        phases = tuple(
            (name, durations.pop(name))
            for name in PHASE_ORDER
            if name in durations
        )
        # Phases outside the canonical order still count, after it.
        phases += tuple(sorted(durations.items()))
        start = min(s.start_s for s in group)
        end = max(s.end_s for s in group)
        kinds = {s.kind for s in group if s.kind}
        requests.append(
            RequestPath(
                trace_id=trace_id,
                kind=min(kinds) if kinds else "",
                start_s=start,
                end_s=end,
                latency_s=end - start,
                phases=phases,
            )
        )
    critical = tuple(
        sorted(requests, key=lambda r: (-r.latency_s, r.trace_id))[:top]
    )

    # --- resource tracks: busy share over the trace extent ------------
    busy: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.category == "resource":
            busy[s.track].append(s)
    tracks = tuple(
        sorted(
            (
                TrackBusy(
                    track=track,
                    n_spans=len(group),
                    busy_seconds=sum(s.duration_s for s in group),
                    busy_share=(
                        sum(s.duration_s for s in group) / span_seconds
                        if span_seconds > 0
                        else 0.0
                    ),
                )
                for track, group in busy.items()
            ),
            key=lambda t: (-t.busy_seconds, t.track),
        )
    )

    # --- queue wait by workload kind ----------------------------------
    by_kind: dict[str, list[RequestPath]] = defaultdict(list)
    for r in requests:
        by_kind[r.kind or "?"].append(r)
    kinds = []
    for kind in sorted(by_kind):
        group = by_kind[kind]
        waits = sorted(r.wait_s for r in group)
        kinds.append(
            KindWait(
                kind=kind,
                n_requests=len(group),
                mean_wait_s=sum(waits) / len(waits),
                p95_wait_s=float(np.percentile(waits, 95)),
                max_wait_s=waits[-1],
                mean_latency_s=sum(r.latency_s for r in group) / len(group),
            )
        )

    return TraceSummary(
        n_spans=len(spans),
        n_requests=len(requests),
        n_shed=n_shed,
        span_seconds=span_seconds,
        critical_path=critical,
        tracks=tracks,
        kinds=tuple(kinds),
    )


def render_trace_summary(summary: TraceSummary) -> str:
    """Text rendering of the trace summary (byte-deterministic)."""
    lines = [
        f"Trace summary — {summary.n_spans} span(s), "
        f"{summary.n_requests} request(s), {summary.n_shed} shed, "
        f"extent {summary.span_seconds * 1e3:.3f} ms",
    ]
    if summary.tracks:
        lines.append("  resources by busy share:")
        lines.append(
            f"  {'Track':>10} {'Spans':>6} {'Busy (ms)':>10} {'Share':>6}"
        )
        for t in summary.tracks:
            lines.append(
                f"  {t.track:>10} {t.n_spans:>6} "
                f"{t.busy_seconds * 1e3:>10.3f} {t.busy_share:>6.1%}"
            )
    if summary.kinds:
        lines.append("  queue wait by workload kind (coalesce + card queue):")
        lines.append(
            f"  {'Kind':>10} {'Reqs':>6} {'Mean(ms)':>9} {'p95(ms)':>8} "
            f"{'Max(ms)':>8} {'Lat(ms)':>8}"
        )
        for k in summary.kinds:
            lines.append(
                f"  {k.kind:>10} {k.n_requests:>6} "
                f"{k.mean_wait_s * 1e3:>9.3f} {k.p95_wait_s * 1e3:>8.3f} "
                f"{k.max_wait_s * 1e3:>8.3f} {k.mean_latency_s * 1e3:>8.3f}"
            )
    if summary.critical_path:
        lines.append(
            f"  critical path — {len(summary.critical_path)} slowest "
            f"request(s):"
        )
        for r in summary.critical_path:
            phases = ", ".join(
                f"{name} {d * 1e3:.3f}" for name, d in r.phases
            )
            lines.append(
                f"    #{r.trace_id} [{r.kind or '?'}] "
                f"{r.latency_s * 1e3:.3f} ms ({phases})"
            )
    return "\n".join(lines)


def trace_summary_dict(summary: TraceSummary) -> dict:
    """JSON-friendly dict of the trace summary."""
    return {
        "n_spans": summary.n_spans,
        "n_requests": summary.n_requests,
        "n_shed": summary.n_shed,
        "span_seconds": summary.span_seconds,
        "critical_path": [
            {
                "trace_id": r.trace_id,
                "kind": r.kind,
                "start_s": r.start_s,
                "end_s": r.end_s,
                "latency_s": r.latency_s,
                "phases": {name: d for name, d in r.phases},
            }
            for r in summary.critical_path
        ],
        "tracks": [
            {
                "track": t.track,
                "n_spans": t.n_spans,
                "busy_seconds": t.busy_seconds,
                "busy_share": t.busy_share,
            }
            for t in summary.tracks
        ],
        "kinds": [
            {
                "kind": k.kind,
                "n_requests": k.n_requests,
                "mean_wait_s": k.mean_wait_s,
                "p95_wait_s": k.p95_wait_s,
                "max_wait_s": k.max_wait_s,
                "mean_latency_s": k.mean_latency_s,
            }
            for k in summary.kinds
        ],
    }
