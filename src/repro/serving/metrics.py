"""Latency, goodput and shed accounting for serving runs.

Everything here is aggregation over :class:`~repro.serving.request.
PricingResponse` / :class:`~repro.serving.request.ShedRecord` streams in
*simulated* time.  The headline numbers mirror what a real serving stack
is judged on: tail latency (p50/p95/p99), **goodput** (only responses
that met their deadline count), and the shed rate (how much offered load
the admission controller and the deadline reaper dropped).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.serving.request import (
    FailRecord,
    PricingResponse,
    ShedReason,
    ShedRecord,
)

__all__ = ["LatencyStats", "CardLoad", "ServingResult", "KindStats",
           "per_kind_stats"]

#: Canonical request-kind ordering for per-workload breakdowns.
_KIND_ORDER = ("quote", "reval", "var")


@dataclass(frozen=True)
class LatencyStats:
    """Percentile summary of a latency sample.

    Attributes
    ----------
    n:
        Sample size (all other fields are 0 when empty).
    mean_s / p50_s / p95_s / p99_s / max_s:
        The usual serving percentiles, in seconds.
    """

    n: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_latencies(
        cls, latencies_s: np.ndarray, *, empty: str = "zero"
    ) -> "LatencyStats":
        """Summarise a latency vector.

        Degenerate samples have an explicit contract:

        * **empty** vectors follow ``empty``: ``"zero"`` (default, the
          historical behaviour — every field 0), ``"nan"`` (``n=0`` with
          NaN statistics, so an empty sample can never be mistaken for a
          fast one), or ``"raise"`` (:class:`~repro.errors.
          ValidationError`);
        * **single-sample** vectors are well-defined, not special-cased:
          every percentile, the mean and the max equal the one sample.

        Parameters
        ----------
        latencies_s:
            Latency vector in seconds (all values must be >= 0).
        empty:
            Policy for zero-length input: ``"zero"``, ``"nan"`` or
            ``"raise"``.
        """
        if empty not in ("zero", "nan", "raise"):
            raise ValidationError(
                f"unknown empty policy {empty!r}; "
                f"choose from ['nan', 'raise', 'zero']"
            )
        lat = np.asarray(latencies_s, dtype=np.float64)
        if lat.size == 0:
            if empty == "raise":
                raise ValidationError("cannot summarise an empty latency sample")
            fill = float("nan") if empty == "nan" else 0.0
            return cls(
                n=0, mean_s=fill, p50_s=fill, p95_s=fill, p99_s=fill, max_s=fill
            )
        if np.any(np.isnan(lat)):
            raise ValidationError("latencies must not contain NaN")
        if not np.all(lat >= 0):
            raise ValidationError("latencies must be >= 0")
        return cls(
            n=int(lat.size),
            mean_s=float(lat.mean()),
            p50_s=float(np.percentile(lat, 50)),
            p95_s=float(np.percentile(lat, 95)),
            p99_s=float(np.percentile(lat, 99)),
            max_s=float(lat.max()),
        )

    def summary(self) -> str:
        """One-line percentile rendering in milliseconds."""
        return (
            f"p50 {self.p50_s * 1e3:.3f} ms / p95 {self.p95_s * 1e3:.3f} ms / "
            f"p99 {self.p99_s * 1e3:.3f} ms (max {self.max_s * 1e3:.3f} ms, "
            f"n={self.n})"
        )


@dataclass(frozen=True)
class CardLoad:
    """One card's share of a serving run.

    Attributes
    ----------
    card_id:
        Which card.
    dispatches:
        Micro-batch chunks this card served.
    n_rows / n_cells:
        Market-state rows transferred and kernel cells priced.
    busy_seconds:
        Total card busy time.
    utilisation:
        Busy fraction of the run span (0 for idle cards).
    """

    card_id: int
    dispatches: int
    n_rows: int
    n_cells: int
    busy_seconds: float
    utilisation: float

    @property
    def idle(self) -> bool:
        """Whether this card served nothing."""
        return self.dispatches == 0


@dataclass(frozen=True)
class ServingResult:
    """Aggregate outcome of one simulated serving run.

    Attributes
    ----------
    n_offered / n_completed:
        Requests offered to the server and requests actually priced.
    n_shed_queue / n_shed_deadline:
        Drops at admission (bounded queue) and at batch formation
        (expired deadline).
    n_deadline_met / n_late:
        Completed responses inside / past their deadline.
    span_seconds:
        First arrival to last completion.
    throughput_rps / goodput_rps:
        Completed, and deadline-met, responses per second of span.
    shed_rate / deadline_hit_rate:
        Sheds over offered; met over completed.
    latency:
        Percentiles over completed responses.
    n_dispatches / mean_batch_requests / mean_batch_rows:
        Micro-batch shape: dispatched batches, mean requests and mean
        distinct market-state rows per batch.
    cards:
        Per-card roll-ups, including idle cards.
    n_failed:
        Requests admitted but failed despite retries (fault-injection
        runs only; always 0 otherwise).
    responses / sheds / fails:
        The raw per-request outcomes; excluded from equality comparisons.
    """

    n_offered: int
    n_completed: int
    n_shed_queue: int
    n_shed_deadline: int
    n_deadline_met: int
    n_late: int
    span_seconds: float
    throughput_rps: float
    goodput_rps: float
    shed_rate: float
    deadline_hit_rate: float
    latency: LatencyStats
    n_dispatches: int
    mean_batch_requests: float
    mean_batch_rows: float
    cards: tuple[CardLoad, ...]
    responses: tuple[PricingResponse, ...] = field(
        default=(), compare=False, repr=False
    )
    sheds: tuple[ShedRecord, ...] = field(default=(), compare=False, repr=False)
    n_failed: int = 0
    fails: tuple[FailRecord, ...] = field(default=(), compare=False, repr=False)

    @property
    def n_shed(self) -> int:
        """Total requests dropped."""
        return self.n_shed_queue + self.n_shed_deadline + self.n_shed_other

    @property
    def n_shed_other(self) -> int:
        """Sheds beyond backpressure/deadline (degradation ladder etc.)."""
        known = (ShedReason.BACKPRESSURE, ShedReason.DEADLINE)
        return sum(1 for s in self.sheds if s.reason not in known)

    def shed_reason_counts(self) -> dict[str, int]:
        """Sheds and failures per typed reason, in declaration order.

        Only reasons that actually occurred appear, so zero-fault runs
        report exactly the historical ``queue_full``/``deadline`` pair
        (or nothing).
        """
        counts: dict[str, int] = {}
        for reason in ShedReason:
            n = sum(1 for s in self.sheds if s.reason is reason)
            n += sum(1 for f in self.fails if f.reason is reason)
            if n:
                counts[reason.value] = n
        return counts

    def summary(self) -> str:
        """One-line aggregate summary."""
        return (
            f"served {self.n_completed}/{self.n_offered} requests in "
            f"{self.n_dispatches} micro-batches "
            f"(mean {self.mean_batch_requests:.1f} req/batch): "
            f"goodput {self.goodput_rps:,.0f} req/s, "
            f"latency {self.latency.summary()}, "
            f"shed {self.shed_rate:.1%}"
        )

    def render(self) -> str:
        """Multi-line report with the per-card table.

        Fault-only lines (failed requests, extra shed reasons) render
        only when nonzero, so fault-free output is unchanged.
        """
        shed_bits = (
            f"({self.n_shed_queue} queue-full, {self.n_shed_deadline} deadline"
        )
        if self.n_shed_other:
            shed_bits += f", {self.n_shed_other} degraded/other"
        shed_bits += ")"
        lines = [
            f"  completed {self.n_completed}/{self.n_offered} "
            f"({self.n_deadline_met} in deadline, {self.n_late} late), "
            f"shed {self.n_shed} " + shed_bits
            + (f", failed {self.n_failed}" if self.n_failed else ""),
            f"  goodput {self.goodput_rps:,.0f} req/s, throughput "
            f"{self.throughput_rps:,.0f} req/s over {self.span_seconds:.3f} s "
            f"(shed rate {self.shed_rate:.1%}, "
            f"hit rate {self.deadline_hit_rate:.1%})",
            f"  latency {self.latency.summary()}",
            f"  {self.n_dispatches} micro-batches: mean "
            f"{self.mean_batch_requests:.1f} requests / "
            f"{self.mean_batch_rows:.1f} market rows per batch",
            f"  {'Card':>4} {'Batches':>8} {'Rows':>8} {'Cells':>10} "
            f"{'Busy(s)':>9} {'Util':>6}",
        ]
        for c in self.cards:
            lines.append(
                f"  {c.card_id:>4} {c.dispatches:>8} {c.n_rows:>8} "
                f"{c.n_cells:>10} {c.busy_seconds:>9.4f} {c.utilisation:>6.1%}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class KindStats:
    """One request kind's share of a serving run.

    The per-workload view of a mixed replay: how the latency-sensitive
    quotes fared versus the periodic risk refreshes sharing the same
    cards.

    Attributes
    ----------
    kind:
        Request kind (``quote`` / ``reval`` / ``var``).
    n_offered / n_completed / n_shed:
        Offered requests of this kind, and how they ended (every offered
        request either completes, is shed, or — under faults — fails).
    n_failed:
        Requests of this kind that exhausted their retry budget
        (fault-injection runs only; always 0 otherwise).
    n_deadline_met:
        Completed responses inside their deadline.
    goodput_rps:
        Deadline-met responses per second of the *whole run's* span, so
        per-kind goodputs add up to the aggregate.
    deadline_hit_rate:
        Met over completed (0 when nothing completed).
    latency:
        Percentiles over this kind's completed responses.
    """

    kind: str
    n_offered: int
    n_completed: int
    n_shed: int
    n_deadline_met: int
    goodput_rps: float
    deadline_hit_rate: float
    latency: LatencyStats
    n_failed: int = 0


def per_kind_stats(result: ServingResult) -> tuple[KindStats, ...]:
    """Break a serving run down by request kind.

    Kinds appear in canonical order (``quote``, ``reval``, ``var``);
    kinds absent from the run are omitted.

    Parameters
    ----------
    result:
        A :class:`ServingResult` carrying its raw ``responses`` and
        ``sheds`` (the default; both are dropped only by hand).
    """
    kinds = {r.kind for r in result.responses}
    kinds.update(s.request.kind for s in result.sheds)
    kinds.update(f.request.kind for f in result.fails)
    ordered = [k for k in _KIND_ORDER if k in kinds]
    ordered += sorted(kinds.difference(_KIND_ORDER))
    span = result.span_seconds
    stats = []
    for kind in ordered:
        responses = [r for r in result.responses if r.kind == kind]
        n_shed = sum(1 for s in result.sheds if s.request.kind == kind)
        n_failed = sum(1 for f in result.fails if f.request.kind == kind)
        met = sum(1 for r in responses if r.met_deadline)
        stats.append(
            KindStats(
                kind=kind,
                n_offered=len(responses) + n_shed + n_failed,
                n_completed=len(responses),
                n_shed=n_shed,
                n_deadline_met=met,
                goodput_rps=met / span if span > 0 else 0.0,
                deadline_hit_rate=met / len(responses) if responses else 0.0,
                latency=LatencyStats.from_latencies(
                    np.asarray([r.latency_s for r in responses])
                ),
                n_failed=n_failed,
            )
        )
    return tuple(stats)
