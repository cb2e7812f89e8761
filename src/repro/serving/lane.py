"""One serving lane: coalescer, admission, in-flight window, dispatcher.

A :class:`Lane` is one quote server's replay on a simulation clock.
:meth:`QuoteServer.serve <repro.serving.engine.QuoteServer.serve>`
drives one lane; :class:`~repro.gateway.engine.Gateway` drives one per
replica on its shared clock.  Every arrival runs the same two steps:

1. :meth:`Lane.tick` — fire due linger timers, drain the in-flight
   window, reap expired pending work (an O(1) no-op while none is due);
2. :meth:`Lane.offer` — bounded admission (pending + in flight +
   awaiting retry, against ``queue_depth``), the degradation ladder
   while a card is down, then the coalescer.  Formed batches are priced
   by the server and timed by the lane's
   :class:`~repro.serving.faulted.FaultedDispatcher`.

A fault-free replay is the empty plan: no card is ever down, so the
ladder never engages and nothing retries.
"""

from __future__ import annotations

from operator import attrgetter

from repro.faults.plan import FaultPlan
from repro.faults.report import FaultReport, build_fault_report
from repro.faults.retry import HedgePolicy, RetryPolicy
from repro.serving.coalescer import MicroBatch, MicroBatchCoalescer
from repro.serving.faulted import DEGRADE_FRACTIONS, FaultedDispatcher
from repro.serving.metrics import CardLoad, ServingResult, outcome_fields
from repro.serving.request import PricingRequest, ShedReason, ShedRecord
from repro.sim import CompletionTracker
from repro.telemetry import NULL_TELEMETRY, MetricsRegistry

__all__ = ["Lane"]


class Lane:
    """One quote server's per-replay surfaces.

    Parameters
    ----------
    server:
        The :class:`~repro.serving.engine.QuoteServer` whose policy
        (queue, admission bound, numerics, telemetry) the lane runs.
    rig:
        The replay's :class:`~repro.api.cost.ClusterTimingRig`; its
        simulation is the lane's clock.
    faults:
        The lane's :class:`~repro.faults.FaultPlan`; ``None`` is the
        empty plan.
    retry / hedge:
        Dispatch policies (see :class:`~repro.serving.faulted.
        FaultedDispatcher`).
    """

    def __init__(
        self,
        server,
        rig,
        faults: FaultPlan | None = None,
        *,
        retry: RetryPolicy | None = None,
        hedge: HedgePolicy | None = None,
    ) -> None:
        self.server = server
        self.rig = rig
        self.plan = faults if faults is not None else FaultPlan()
        self.queue_depth = server.queue_depth
        self.coalescer = MicroBatchCoalescer(server.queue)
        self.in_flight = CompletionTracker()
        # One registry per replay: the run's tallies are named metrics,
        # not loose integers, so the roll-up and the telemetry publish
        # read the same counters.
        self.metrics = MetricsRegistry()
        self._n_batches = self.metrics.counter("serving_batches_total")
        self._batch_requests = self.metrics.counter(
            "serving_batch_requests_total"
        )
        self._batch_rows = self.metrics.counter("serving_batch_rows_total")
        self._shed_queue = self.metrics.counter(
            "serving_requests_shed_queue_total"
        )
        self.dispatcher = FaultedDispatcher(
            server, rig, self.plan, retry=retry, hedge=hedge,
            metrics=self.metrics, in_flight=self.in_flight,
        )
        self.health = self.dispatcher.health
        self.recorder = server.telemetry.recorder
        #: Every request offered to the lane, admitted or shed.
        self.trace: list[PricingRequest] = []
        self.queue_sheds: list[ShedRecord] = []

    @property
    def n_outstanding(self) -> int:
        """Admitted-but-incomplete requests: pending, in flight, retrying."""
        return (
            self.coalescer.n_pending
            + len(self.in_flight)
            + self.dispatcher.n_outstanding
        )

    # ------------------------------------------------------------------
    def run(self, batches: list[MicroBatch]) -> None:
        """Price and dispatch formed batches."""
        for batch in batches:
            self.server._run_batch(batch, self.dispatcher)
            self._n_batches.inc()
            self._batch_requests.inc(len(batch.requests))
            self._batch_rows.inc(len(batch.rows))

    def tick(self, now: float) -> None:
        """The per-arrival housekeeping, before admission.

        Each step runs only when it is due by ``now``: the coalescer's
        linger timers and deadline reaping at its next due time, the
        in-flight drain at the earliest completion.  Before its due
        time, the coalescer's steps form no batch and shed nothing.
        Both times are read live, since a retry can change the
        in-flight window between two arrivals.
        """
        coalescer_due = self.coalescer.next_due_s <= now
        if coalescer_due:
            self.run(self.coalescer.advance(now))
        # Drain *after* the linger sweep: batches it dispatched may
        # already have completed by this arrival, and counting them as
        # in-flight would shed requests from an idle server.
        if self.in_flight.next_done_s <= now:
            self.in_flight.drain(now)
        if coalescer_due:
            # Expired pending requests can never be priced; reap them
            # so dead work does not trip the admission bound.
            self.coalescer.reap(now)

    def offer(self, req: PricingRequest, now: float) -> bool:
        """Admit ``req`` to the coalescer or shed it; True when admitted."""
        self.trace.append(req)
        # Outstanding work counts requests parked for retry too: they
        # are in neither the coalescer nor the in-flight window, but
        # they hold real capacity.
        outstanding = self.n_outstanding
        if outstanding >= self.queue_depth:
            self._shed(req, now, ShedReason.BACKPRESSURE)
            return False
        # Degradation ladder: while capacity is reduced, shed the
        # low-priority tiers at a fraction of the admission bound —
        # var refreshes go first, quotes keep the full queue.
        if not self.health.never_down and self.health.capacity_reduced(now):
            frac = DEGRADE_FRACTIONS[req.kind]
            if frac < 1.0 and outstanding >= frac * self.queue_depth:
                self._shed(req, now, ShedReason.DEGRADED)
                return False
        self.run(self.coalescer.offer(req))
        return True

    def flush(self) -> None:
        """The trace has ended: form and dispatch every pending batch.

        Remaining linger timers fire past the last arrival, so tail
        batches keep honest formation times.  Their retries, if any,
        are events the caller still has to run.
        """
        self.run(self.coalescer.flush())

    def _shed(self, req: PricingRequest, now: float, reason: ShedReason) -> None:
        self.queue_sheds.append(ShedRecord(req, now, reason))
        if reason is ShedReason.BACKPRESSURE:
            self._shed_queue.inc()
        else:
            self.dispatcher.counters.n_shed_degraded += 1
        if self.recorder.enabled:
            self.recorder.record(
                "shed", now, now, track="server", category="request",
                trace_id=req.request_id, kind=req.kind,
                args={"reason": reason.value},
            )

    # ------------------------------------------------------------------
    def result(self) -> ServingResult:
        """The lane's replay summary, published into the server telemetry.

        A lane no request reached (a drained gateway replica) summarises
        to zeros and publishes nothing.
        """
        if self.recorder.enabled:
            for rec in self.coalescer.sheds:
                self.recorder.record(
                    "shed", rec.time_s, rec.time_s, track="server",
                    category="request", trace_id=rec.request.request_id,
                    kind=rec.request.kind, args={"reason": rec.reason.value},
                )
        if not self.plan.is_empty:
            self._count_faults()
        by_time = attrgetter("time_s")
        sheds = sorted(
            self.queue_sheds + list(self.coalescer.sheds), key=by_time
        )
        fails = sorted(self.dispatcher.fails, key=by_time)
        result = self._summarise(self.dispatcher.responses, sheds, fails)
        if self.trace:
            self._publish(result)
        return result

    def fault_report(self) -> FaultReport | None:
        """The resilience summary of a faulted replay (None without faults)."""
        if self.plan.is_empty:
            return None
        responses = self.dispatcher.responses
        # Phase boundaries live on the sim clock (t=0), so the report
        # span is the last completion instant, not the arrival-relative
        # span_seconds — otherwise the tail completions fall outside
        # every phase.
        return build_fault_report(
            self.plan,
            self.health,
            [(r.completion_s, r.latency_s) for r in responses],
            self.dispatcher.counters,
            span_s=max((r.completion_s for r in responses), default=0.0),
        )

    def _count_faults(self) -> None:
        """Fold the dispatcher's resilience counters into the registry."""
        counters = self.dispatcher.counters
        counters.n_breaker_trips = self.dispatcher.breakers.n_trips
        counters.n_breaker_probes = self.dispatcher.breakers.n_probes
        for name, value in (
            ("serving_retries_total", counters.n_retries),
            ("serving_hedges_total", counters.n_hedges),
            ("serving_breaker_trips_total", counters.n_breaker_trips),
            ("serving_requests_failed_total", counters.n_failed_requests),
            ("serving_requests_shed_degraded_total", counters.n_shed_degraded),
        ):
            self.metrics.counter(name).inc(value)

    def _summarise(self, responses, sheds, fails) -> ServingResult:
        outcome = outcome_fields(self.trace, responses, sheds)
        span = outcome["span_seconds"]

        def card_count(name: str, card_id: int) -> int:
            return int(
                self.metrics.counter(name, labels={"card": str(card_id)}).value
            )

        card_loads = tuple(
            CardLoad(
                card_id=card_id,
                dispatches=resource.n_reservations,
                n_rows=card_count("serving_card_rows_total", card_id),
                n_cells=card_count("serving_card_cells_total", card_id),
                busy_seconds=resource.busy_seconds,
                utilisation=resource.utilisation(span),
            )
            for card_id, resource in enumerate(self.rig.cards)
        )
        n_batches = int(self._n_batches.value)
        return ServingResult(
            **outcome,
            n_dispatches=n_batches,
            mean_batch_requests=(
                self._batch_requests.value / n_batches if n_batches else 0.0
            ),
            mean_batch_rows=(
                self._batch_rows.value / n_batches if n_batches else 0.0
            ),
            cards=card_loads,
            responses=tuple(responses),
            sheds=tuple(sheds),
            n_failed=len(fails),
            fails=tuple(fails),
        )

    def _publish(self, result: ServingResult) -> None:
        """Fold the replay's tallies into the server's telemetry handle.

        Skipped for the shared no-op handle so un-instrumented runs
        leave no global state behind.  Counters add across replays;
        gauges describe the latest one.
        """
        telemetry = self.server.telemetry
        if telemetry is NULL_TELEMETRY:
            return
        out = telemetry.metrics
        out.absorb(self.metrics)
        for name, value in (
            ("serving_requests_offered_total", result.n_offered),
            ("serving_requests_completed_total", result.n_completed),
            ("serving_requests_shed_deadline_total", result.n_shed_deadline),
            ("serving_deadline_met_total", result.n_deadline_met),
        ):
            out.counter(name).inc(value)
        out.histogram("serving_latency_seconds").observe_many(
            r.latency_s for r in result.responses
        )
        for name, value in (
            ("serving_span_seconds", result.span_seconds),
            ("serving_throughput_rps", result.throughput_rps),
            ("serving_goodput_rps", result.goodput_rps),
            ("serving_shed_rate", result.shed_rate),
            ("serving_host_busy_seconds", self.rig.host.busy_seconds),
        ):
            out.gauge(name).set(value)
        for card_id, resource in enumerate(self.rig.cards):
            labels = {"card": str(card_id)}
            out.gauge("serving_card_busy_seconds", labels=labels).set(
                resource.busy_seconds
            )
            out.gauge("serving_card_utilisation", labels=labels).set(
                resource.utilisation(result.span_seconds)
            )
