"""Health-aware micro-batch dispatch: retries, hedging, breakers.

:class:`FaultedDispatcher` is the quote server's one dispatch path.  It
times every chunk through :meth:`~repro.api.cost.ClusterTimingRig.
dispatch` against the replay's :class:`~repro.faults.FaultPlan`.  A
fault-free replay carries the empty plan: no card is ever down, no
window stretches or fails, nothing retries, and every chunk is the plain
host-then-card busy-window recurrence the timing-conformance suite pins.

The model, per micro-batch:

* **numerics run once** — the server prices the batch's rows with one
  negotiated ``quote_rows`` call when the batch forms.  Faults, retries
  and hedges only ever duplicate *simulated* card time; response values
  are bit-identical to the fault-free run.
* **dispatch is prospective** — the rig peeks at where a window would
  land before committing it.  Work reaching the head of a down card's
  queue fails immediately; a window a crash would cut short is charged
  as wasted work up to the crash instant and fails there.
* **failures retry with capped exponential backoff** — surviving rows of
  a failed chunk are re-dispatched over the currently healthy, breaker-
  admitted cards after a seeded full-jitter backoff; the retry budget is
  per dispatch group, and exhausting it turns the group's requests into
  :class:`~repro.serving.request.FailRecord`\\ s.
* **a per-card circuit breaker** (closed/open/half-open) stops the
  dispatcher hammering a card that keeps failing; open breakers divert
  work to the remaining cards, a half-open probe readmits one dispatch.
* **optional hedging** duplicates the slowest straggling chunk of a
  batch onto the fastest alternative card; the first finisher wins and
  the loser's window is charged to the duplicate-work ratio.

Conservation is the load-bearing invariant: every admitted request
finalises exactly once — as a response or a fail record — no matter how
many times its rows were re-dispatched.  The property suite pins
``offered == completed + shed + failed`` over generated plans.
"""

from __future__ import annotations

import math

from repro.api.cost import FailedWindow
from repro.cluster.scheduler import validate_partition
from repro.faults.breaker import BreakerBank
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultCounters
from repro.faults.retry import HedgePolicy, RetryPolicy
from repro.serving.coalescer import MicroBatch
from repro.serving.request import FailRecord, PricingResponse, ShedReason
from repro.sim import Reservation

__all__ = ["FaultedDispatcher", "DEGRADE_FRACTIONS"]

#: Degradation ladder: while cluster capacity is reduced, a kind is shed
#: once outstanding work exceeds this fraction of the admission bound —
#: the mini VaR refreshes go first, latency-critical quotes last.
DEGRADE_FRACTIONS = {"quote": 1.0, "reval": 0.5, "var": 0.25}


class _BatchState:
    """Mutable progress of one micro-batch through dispatch."""

    __slots__ = ("batch", "values", "weight", "placed", "failed", "pending",
                 "attempts", "finalised")

    def __init__(self, batch: MicroBatch, values: list[float],
                 weight: dict[int, int]) -> None:
        self.batch = batch
        self.values = values
        self.weight = weight
        #: row -> (card, host issue window, card window) of its last
        #: successful dispatch.
        self.placed: dict[int, tuple[int, Reservation, Reservation]] = {}
        self.failed: dict[int, tuple[float, ShedReason]] = {}
        self.pending: set[int] = set(weight)
        self.attempts = 1
        self.finalised = False


class FaultedDispatcher:
    """Drives priced micro-batches through the cluster on the sim clock.

    Parameters
    ----------
    server:
        The owning :class:`~repro.serving.engine.QuoteServer` (scheduler,
        link and telemetry are borrowed from it).
    rig:
        The replay's timing rig; the plan is injected into it here.
    plan:
        The fault plan (the empty plan for a fault-free replay).
    retry / hedge:
        Policies; ``None`` picks the defaults (retry seeded from the
        plan, hedging disabled).
    metrics:
        The replay's metrics registry (per-card row/cell counters).
    in_flight:
        The admission controller's completion tracker; finalised
        responses are pushed as their completion becomes known.
    """

    def __init__(self, server, rig, plan: FaultPlan, *,
                 retry: RetryPolicy | None, hedge: HedgePolicy | None,
                 metrics, in_flight) -> None:
        self.server = server
        self.rig = rig
        self.sim = rig.sim
        self.plan = plan
        self.health = rig.inject(plan)
        self.breakers = BreakerBank(server.n_cards)
        self.retry = retry if retry is not None else RetryPolicy(seed=plan.seed)
        self.hedge = hedge if hedge is not None else HedgePolicy(enabled=False)
        self.metrics = metrics
        self.in_flight = in_flight
        self.recorder = server.telemetry.recorder
        #: card -> its (rows, cells) counters, bound on first use.
        self._card_counters: dict[int, tuple] = {}
        self.counters = FaultCounters()
        self.responses: list[PricingResponse] = []
        self.fails: list[FailRecord] = []
        #: Requests dispatched whose terminal state is not yet known —
        #: part of the admission controller's outstanding count.
        self.n_outstanding = 0
        self._record_fault_spans()

    def _record_fault_spans(self) -> None:
        """Mirror the plan's events as spans on a dedicated trace track."""
        if not self.recorder.enabled:
            return
        for event in self.plan.events:
            end = getattr(event, "down_until_s", None)
            if end is None:
                end = event.until_s
            if math.isinf(end):
                end = event.at_s  # permanent: render as an instant
            name = f"fault:{event.spec().split(':', 1)[0]}"
            self.recorder.record(
                name, event.at_s, end, track="faults", category="fault",
                args={"spec": event.spec()},
            )

    # ------------------------------------------------------------------
    def run_batch(self, batch: MicroBatch, values: list[float],
                  weight: dict[int, int]) -> None:
        """Start a priced batch's dispatch at its formation instant.

        ``values`` are the batch's per-request answers and ``weight``
        maps each of its rows, in order, to the kernel cells it costs.
        """
        state = _BatchState(batch, values, weight)
        self.n_outstanding += batch.n_requests
        self._dispatch(state, list(weight), batch.formed_s, attempt=0)

    # ------------------------------------------------------------------
    def _dispatch(self, state: _BatchState, rows: list[int], t: float,
                  attempt: int) -> None:
        """Dispatch ``rows`` (one attempt) over healthy, admitted cards.

        The rows are sharded by kernel-cell weight; the heaviest chunks
        land on the least-busy cards (online in-flight balancing).
        """
        rows = [r for r in rows if r in state.pending]
        if not rows:
            return
        state.attempts = max(state.attempts, attempt + 1)
        healthy = self.health.healthy_cards(t)
        # Breakers only leave the closed state after a failed dispatch.
        allowed = (
            self.breakers.allowed_cards(healthy, t)
            if self.counters.n_failed_dispatches
            else healthy
        )
        if not allowed:
            reason = (
                ShedReason.BREAKER_OPEN if healthy else ShedReason.CARD_FAILURE
            )
            self._retry_or_fail(state, rows, t, attempt, reason)
            return

        weights = [float(state.weight[r]) for r in rows]
        sub = self.server.scheduler.partition(weights, len(allowed))
        validate_partition(sub, len(rows))
        chunks = sorted(
            (chunk for chunk in sub if chunk),
            key=lambda chunk: -sum(weights[i] for i in chunk),
        )
        by_busy = sorted(
            allowed, key=lambda c: (self.rig.cards[c].busy_until, c)
        )
        factor = self.server.link.contention_factor(len(chunks))

        successes: list[tuple[list[int], int, Reservation, Reservation]] = []
        failures: list[tuple[list[int], float]] = []
        for slot, chunk in enumerate(chunks):
            card = by_busy[slot]
            chunk_rows = [rows[i] for i in chunk]
            window = self._dispatch_chunk(state, chunk_rows, card, t, factor)
            if isinstance(window, FailedWindow):
                failures.append((chunk_rows, window.done_s))
            else:
                successes.append(
                    (chunk_rows, card, self.rig.last_host_window, window)
                )
        self._maybe_hedge(state, successes, by_busy, t, factor)
        for chunk_rows, card, issued, window in successes:
            for r in chunk_rows:
                state.placed[r] = (card, issued, window)
                state.pending.discard(r)
        for chunk_rows, fail_s in failures:
            self._retry_or_fail(
                state, chunk_rows, fail_s, attempt, ShedReason.CARD_FAILURE
            )
        self._maybe_finalise(state)

    def _dispatch_chunk(self, state: _BatchState, chunk_rows: list[int],
                        card: int, t: float, factor: float) -> Reservation:
        """One chunk onto one card; returns its (possibly failed) window."""
        n_cells = sum(state.weight[r] for r in chunk_rows)
        window = self.rig.dispatch(
            t, card, len(chunk_rows), n_cells, contention=factor
        )
        breaker = self.breakers[card]
        if isinstance(window, FailedWindow):
            self.counters.n_failed_dispatches += 1
            self.counters.wasted_work_s += (
                window.service_s + self.rig.last_host_window.service_s
            )
            breaker.record_failure(window.done_s)
            return window
        self.counters.useful_work_s += window.service_s
        breaker.record_success(window.done_s)
        counters = self._card_counters.get(card)
        if counters is None:
            labels = {"card": str(card)}
            counters = self._card_counters[card] = (
                self.metrics.counter("serving_card_rows_total", labels=labels),
                self.metrics.counter("serving_card_cells_total", labels=labels),
            )
        counters[0].inc(len(chunk_rows))
        counters[1].inc(n_cells)
        return window

    def _maybe_hedge(self, state: _BatchState, successes, by_busy,
                     t: float, factor: float) -> None:
        """Duplicate the slowest straggling chunk; first finisher wins."""
        if not self.hedge.enabled or len(successes) < 2 or len(by_busy) < 2:
            return
        budget = self.hedge.max_hedges_per_batch
        dones = sorted(window.done_s for *_, window in successes)
        # Lower median: with two chunks the straggler is judged against
        # the faster one, otherwise no two-card cluster could ever hedge.
        median = dones[(len(dones) - 1) // 2]
        order = sorted(
            range(len(successes)), key=lambda i: -successes[i][3].done_s
        )
        for i in order:
            if budget <= 0:
                break
            chunk_rows, card, _, window = successes[i]
            if not self.hedge.should_hedge(
                window.done_s, median, state.batch.formed_s
            ):
                continue
            alt = next((c for c in by_busy if c != card), None)
            if alt is None:
                continue
            budget -= 1
            self.counters.n_hedges += 1
            hedged = self._dispatch_chunk(state, chunk_rows, alt, t, factor)
            if isinstance(hedged, FailedWindow):
                continue
            if hedged.done_s < window.done_s:
                # The hedge won: the primary window becomes the waste.
                self.counters.n_hedge_wins += 1
                self.counters.useful_work_s -= window.service_s
                self.counters.wasted_work_s += window.service_s
                successes[i] = (
                    chunk_rows, alt, self.rig.last_host_window, hedged
                )
            else:
                self.counters.useful_work_s -= hedged.service_s
                self.counters.wasted_work_s += hedged.service_s

    # ------------------------------------------------------------------
    def _retry_or_fail(self, state: _BatchState, rows: list[int], t: float,
                       attempt: int, reason: ShedReason) -> None:
        """Back off and re-dispatch, or mark the rows' requests failed."""
        next_attempt = attempt + 1
        if self.retry.exhausted(next_attempt):
            for r in rows:
                state.failed[r] = (t, reason)
                state.pending.discard(r)
            state.attempts = max(state.attempts, next_attempt)
            self._maybe_finalise(state)
            return
        delay = self.retry.backoff_s(next_attempt)
        self.counters.n_retries += 1
        # Batches can form (and fail) at instants the coalescer flushed
        # retroactively, so the retry must not land before the clock.
        retry_s = max(t + delay, self.sim.clock.now)
        self.sim.schedule_at(
            retry_s,
            self._on_retry,
            payload=(state, tuple(rows), retry_s, next_attempt),
            label="fault-retry",
        )

    def _on_retry(self, payload) -> None:
        state, rows, t, attempt = payload
        self._dispatch(state, list(rows), t, attempt)

    def _maybe_finalise(self, state: _BatchState) -> None:
        """Emit terminal records once every row is done or failed."""
        if state.pending or state.finalised:
            return
        state.finalised = True
        batch = state.batch
        for req, value in zip(batch.requests, state.values):
            failed = [r for r in req.rows if r in state.failed] if state.failed else ()
            if failed:
                fail_s = max(state.failed[r][0] for r in failed)
                reason = state.failed[max(failed, key=lambda r: state.failed[r][0])][1]
                self.fails.append(
                    FailRecord(
                        request=req,
                        time_s=fail_s,
                        attempts=state.attempts,
                        reason=reason,
                    )
                )
                self.counters.n_failed_requests += 1
                continue
            placed = state.placed
            completion = max(placed[r][2].done_s for r in req.rows)
            if self.recorder.enabled:
                self._record_phases(req, batch, placed, completion)
            self.responses.append(
                PricingResponse(
                    request_id=req.request_id,
                    kind=req.kind,
                    value=value,
                    arrival_s=req.arrival_s,
                    formed_s=batch.formed_s,
                    completion_s=completion,
                    latency_s=completion - req.arrival_s,
                    met_deadline=completion <= req.deadline_s,
                    batch_id=batch.batch_id,
                    cards=tuple(sorted({placed[r][0] for r in req.rows})),
                    tenant=req.tenant,
                )
            )
            self.in_flight.push(completion)
        self.n_outstanding -= len(batch.requests)

    def _record_phases(self, req, batch: MicroBatch, placed,
                       completion: float) -> None:
        """The request's four phase spans, along its critical row.

        The critical row is the one whose card window completes last.
        The phases tile ``[arrival, completion]`` with no gaps, so their
        durations sum exactly to the reported latency; ``host_link``
        also covers any failed attempts and retry backoff.
        """
        crit = max(req.rows, key=lambda r: (placed[r][2].done_s, r))
        card, issued, window = placed[crit]
        for name, start, end, args in (
            ("coalesce", req.arrival_s, batch.formed_s,
             {"batch": batch.batch_id}),
            ("host_link", batch.formed_s, issued.done_s, {"card": card}),
            ("card_queue", issued.done_s, window.start_s, {"card": card}),
            ("card_service", window.start_s, completion, {"card": card}),
        ):
            self.recorder.record(
                name, start, end, track="requests", category="request",
                trace_id=req.request_id, kind=req.kind, args=args,
            )
