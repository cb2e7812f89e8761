"""The quote server: micro-batched request coalescing onto the cluster.

:class:`QuoteServer` is the online counterpart of the overnight risk
batch.  A stream of :class:`~repro.serving.request.PricingRequest`
objects (quotes, revals, VaR refreshes) arrives in simulated time; the
server coalesces them into micro-batches under a size-or-linger policy
(:class:`~repro.serving.coalescer.MicroBatchCoalescer`, carrying the
cluster layer's :class:`~repro.cluster.batching.BatchQueue`), answers
each batch from the server's table of its frozen tape, and shards the
batch's rows for *timing* across cluster cards with the existing
:class:`~repro.cluster.scheduler.ClusterScheduler` policies, weighted by
each row's kernel-cell cost.  The table is filled lazily: a batch's rows
that no earlier batch read are priced in **one** whole-book call into
the backend its risk engine's session binds (via
:meth:`~repro.risk.engine.ScenarioRiskEngine.quote_rows` and
:meth:`~repro.api.PricingBackend.price_rows`), so host pricing work
scales with the distinct market states a replay touches, not with its
requests.  Only ``supports_streaming`` backends are accepted — the
capability flag of the unified API.

Two clocks run side by side, exactly as in the risk subsystem:

* **numerics** execute on the host, for real — every response value is a
  genuine kernel output, read off the table, and bit-identical to
  pricing each request alone (rows are independent inside the kernel);
  the cards are still charged every cell each batch needs;
* **timing** runs on the unified :mod:`repro.sim` core: request arrivals
  are the sorted arrival source of one :class:`~repro.sim.Simulation`
  (merged with its event queue in ``(time, priority, seq)`` order), the
  host thread and every card are :class:`~repro.sim.Resource`
  busy-window surfaces on the :class:`~repro.api.cost.ClusterTimingRig`
  each replay lane builds, linger timers fire as the event loop reaches
  them, and concurrent card transfers stretch by the
  :class:`~repro.cluster.interconnect.HostLinkModel` contention factor.
  The timing-conformance suite pins this event-driven replay
  bit-identical to the pre-``repro.sim`` per-card ``busy_until``
  bookkeeping it replaced.

The dispatch cost model (:class:`~repro.api.cost.DispatchCostModel`)
is calibrated once per server from the cycles of one representative
:class:`~repro.cluster.node.ClusterNode` batch — the same engine network
behind every other layer, timed without computing values — split into
the fixed per-dispatch overhead (kernel invocation + PCIe setup) and the
marginal per-row / per-cell costs.  That split is the entire economics of
micro-batching: dispatching requests one at a time pays the fixed
overhead per request, coalescing amortises it across the batch.

Each replay runs on one :class:`~repro.serving.lane.Lane`: bounded
admission (a request arriving while ``queue_depth`` admitted requests
are still pending, in flight or awaiting retry is shed — backpressure),
the coalescer (pending requests whose deadline expires before their
batch forms are shed), and the health-aware dispatcher of
:mod:`repro.serving.faulted`.  A fault-free replay is the empty fault
plan; a non-empty plan adds retries, circuit breakers and the
degradation ladder on the same path.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter

import numpy as np

from repro.api import PricingBackend, create_backend
from repro.api.cost import ClusterTimingRig, DispatchCostModel
from repro.api.session import capability_error
from repro.cluster.batching import BatchQueue
from repro.cluster.interconnect import HostLinkModel
from repro.cluster.scheduler import ClusterScheduler, make_scheduler
from repro.core.validation import check_count
from repro.core.vector_pricing import InvalidAnnuityError
from repro.errors import ValidationError
from repro.faults.plan import FaultPlan
from repro.faults.report import FaultReport
from repro.faults.retry import HedgePolicy, RetryPolicy
from repro.risk.engine import Portfolio, ScenarioRiskEngine
from repro.risk.measures import value_at_risk
from repro.risk.tensor import ScenarioTensor
from repro.serving.coalescer import MicroBatch
from repro.serving.lane import Lane
from repro.serving.metrics import ServingResult
from repro.serving.request import PricingRequest
from repro.sim import Simulation
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.scenarios import PaperScenario

__all__ = ["QuoteServer", "VAR_CONFIDENCE"]

#: Confidence level of the VaR-refresh request family.
VAR_CONFIDENCE = 0.95


class QuoteServer:
    """Simulated-time online pricing service over the cluster.

    The tape is read-only, so each (row, contract) spread and each row's
    reval P&L is a pure function of the row.  The server keeps them in
    one table, filled the first time a batch reads the row and never
    invalidated; every replay, and every lane of a gateway, reads the
    same table.  It holds at most ``tape.n_scenarios x n_positions``
    spreads plus one P&L and one priced-row entry per row (about 75 KB
    for a 256-state tape and a 32-position book), and the error text of
    each cell whose annuity is invalid: only a batch whose requests read
    such a cell fails, naming the first of them (tape row, then book
    index).

    Parameters
    ----------
    book:
        The signed book the server quotes and revalues.
    tape:
        The live market tape: a :class:`~repro.risk.tensor.
        ScenarioTensor` whose rows are the market states requests
        reference.
    scenario:
        Experimental configuration (default
        :class:`~repro.workloads.scenarios.PaperScenario`).
    n_cards / n_engines:
        Cluster shape.
    scheduler:
        Row-sharding policy per micro-batch (name or
        :class:`~repro.cluster.scheduler.ClusterScheduler` instance);
        rows are weighted by their kernel-cell cost, so the cost-aware
        policies balance mixed quote/reval/var batches.
    link:
        Host-path timing model (default :class:`HostLinkModel`).
    queue:
        Size-or-linger coalescing policy (default
        ``BatchQueue(max_batch=128, linger_s=1e-3)``).
    queue_depth:
        Bound on admitted-but-incomplete requests (pending, in flight or
        awaiting retry); arrivals beyond it are shed (backpressure).
    chunk_size:
        Kernel chunk size for the host numerics (``None`` = automatic).
    backend:
        Pricing backend the risk engine's session binds (registry name
        or unbound :class:`~repro.api.PricingBackend` instance).  Must
        advertise ``supports_streaming``.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  With a
        recording handle every replay emits resource busy-window spans
        (host + cards, via the timing rig) and four per-request phase
        spans — ``coalesce``, ``host_link``, ``card_queue``,
        ``card_service`` — keyed by the request id as trace id, whose
        durations sum exactly to the request's reported latency.  Run
        tallies are published into ``telemetry.metrics`` after each
        :meth:`serve`.  Default: the process-wide no-op handle (reports
        are byte-identical either way).
    """

    #: Default coalescing policy: micro-batches, not overnight batches.
    DEFAULT_QUEUE = BatchQueue(max_batch=128, linger_s=1e-3)

    def __init__(
        self,
        book: Portfolio,
        tape: ScenarioTensor,
        *,
        scenario: PaperScenario | None = None,
        n_cards: int = 4,
        n_engines: int = 5,
        scheduler: ClusterScheduler | str = "least-loaded",
        link: HostLinkModel | None = None,
        queue: BatchQueue | None = None,
        queue_depth: int = 4096,
        chunk_size: int | None = None,
        backend: str | PricingBackend = "vectorized",
        telemetry: Telemetry | None = None,
    ) -> None:
        check_count(n_cards, "n_cards")
        check_count(queue_depth, "queue_depth")
        if chunk_size is not None:
            check_count(chunk_size, "chunk_size")
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._tape = tape
        self.n_cards = n_cards
        self.scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.link = link if link is not None else HostLinkModel()
        self.queue = queue if queue is not None else self.DEFAULT_QUEUE
        self.queue_depth = queue_depth
        self.chunk_size = chunk_size
        # Gate on the streaming capability BEFORE the engine binds the
        # backend: the server's requirement is the one the user should
        # see (the engine would otherwise fail first on its own legs
        # check with a "risk revaluation" message), and nothing is bound
        # yet so a caller-supplied instance stays reusable.
        if isinstance(backend, str):
            backend = create_backend(backend)
        if not backend.capabilities.supports_streaming:
            raise capability_error(
                backend.name, ["supports_streaming"], "the quote server"
            )
        # The risk engine's pricing session binds the book once and owns
        # the base state; quote_rows() is the shared pricing path.
        self.engine = ScenarioRiskEngine(
            book,
            scenario=scenario,
            n_cards=n_cards,
            n_engines=n_engines,
            scheduler=self.scheduler,
            link=self.link,
            backend=backend,
            telemetry=self.telemetry,
        )
        self.cost_model = DispatchCostModel.calibrate(
            self.engine.scenario,
            book.options,
            self.engine.yield_curve,
            self.engine.hazard_curve,
            n_engines=n_engines,
        )
        self._notionals = book.notionals
        self._base_pv = self.engine.base_pv
        # The table of the tape (see the class docstring): rows priced so
        # far, their spreads and P&Ls, and the invalid cells' errors.
        self._priced: set[int] = set()
        self._spreads = np.empty((tape.n_scenarios, self.n_positions))
        self._pnl = np.empty(tape.n_scenarios)
        self._bad_cells: dict[tuple[int, int], str] = {}
        #: Resilience summary of the most recent faulted :meth:`serve`
        #: (``None`` after a fault-free replay).
        self.last_fault_report: FaultReport | None = None

    @property
    def tape(self) -> ScenarioTensor:
        """The served market tape (read-only, as the table assumes)."""
        return self._tape

    @property
    def book(self) -> Portfolio:
        """The served book."""
        return self.engine.portfolio

    @property
    def n_positions(self) -> int:
        """Book size."""
        return len(self.engine.portfolio)

    # ------------------------------------------------------------------
    def _check_trace(self, trace: Sequence[PricingRequest]) -> None:
        """Validate a trace's rows, option indices and ids in one pass.

        When the pass fails, every request is checked in trace order, so
        the first bad one raises its own message.  A trace that passes
        that repeats a request id, which would answer (or, behind the
        gateway's cache, lose) two requests under one id.
        """
        options = [
            i for i in map(attrgetter("option_index"), trace) if i is not None
        ]
        if (
            max(map(max, map(attrgetter("rows"), trace))) < self.tape.n_scenarios
            and max(options, default=-1) < self.n_positions
            and len(set(map(attrgetter("request_id"), trace))) == len(trace)
        ):
            return
        for req in trace:
            self._check_request(req)
        seen: set[int] = set()
        for req in trace:
            if req.request_id in seen:
                raise ValidationError(
                    f"request id {req.request_id} appears more than once "
                    "in the trace"
                )
            seen.add(req.request_id)

    def _check_request(self, req: PricingRequest) -> None:
        if any(r >= self.tape.n_scenarios for r in req.rows):
            raise ValidationError(
                f"request {req.request_id} references market row beyond the "
                f"{self.tape.n_scenarios}-state tape"
            )
        if req.option_index is not None and req.option_index >= self.n_positions:
            raise ValidationError(
                f"request {req.request_id} quotes option {req.option_index} "
                f"beyond the {self.n_positions}-position book"
            )

    def _pnl_rows(self, pv: np.ndarray) -> np.ndarray:
        """Book P&L of each row of unit PVs against the base state.

        A per-row pairwise reduction, NOT a matrix-vector product: BLAS
        picks different kernels for different matrix heights, which
        would make a row's P&L depend on how many rows were priced with
        it and break the batched == individual bit-identity pin.
        """
        return np.sum(
            (pv - self._base_pv[None, :]) * self._notionals[None, :], axis=1
        )

    def _values(
        self,
        requests: Sequence[PricingRequest],
        spreads: np.ndarray,
        pnl: np.ndarray,
        at: dict[int, int] | None = None,
    ) -> list[float]:
        """Per-request answers read off quote surfaces.

        Row ``at[r]`` of ``spreads`` and ``pnl`` holds tape row ``r``
        (``None``: row ``r`` itself, as in the table).  Every value
        depends only on the request's own rows and contract, so neither
        the batching nor the table ever changes a number.
        """
        values: list[float] = []
        for req in requests:
            rows = req.rows if at is None else [at[r] for r in req.rows]
            if req.kind == "quote":
                values.append(float(spreads[rows[0], req.option_index]))
            elif req.kind == "reval":
                values.append(float(pnl[rows[0]]))
            else:  # var
                values.append(
                    value_at_risk(pnl[list(rows)], confidence=VAR_CONFIDENCE)
                )
        return values

    def price_individually(
        self, requests: Sequence[PricingRequest]
    ) -> list[float]:
        """Reference path: one kernel call per request, no table.

        The property suite pins :meth:`serve`'s values, read off the
        table, bit-identical to this.
        """
        values: list[float] = []
        for req in requests:
            self._check_request(req)
            rows = sorted(set(req.rows))
            spreads, pv = self.engine.quote_rows(
                self.tape, rows, chunk_size=self.chunk_size
            )
            at = {row: i for i, row in enumerate(rows)}
            values.extend(self._values([req], spreads, self._pnl_rows(pv), at))
        return values

    def _fill(self, rows: list[int]) -> None:
        """Price tape ``rows`` into the table: one whole-book call.

        Cells whose annuity is invalid keep their error text instead of
        failing the fill; :meth:`_check_cells` raises it for the batches
        that read them.  A report over other rows than ``rows`` (from a
        backend that prices them in parts) cannot fill the table, so it
        fails the fill as a backend without the report does.
        """
        try:
            spreads, pv = self.engine.quote_rows(
                self.tape, rows, chunk_size=self.chunk_size
            )
        except InvalidAnnuityError as err:
            if not np.array_equal(err.row_ids, rows):
                raise
            spreads, pv = err.result
            for (i, k), text in err.cell_messages():
                self._bad_cells[rows[i], k] = text
        self._spreads[rows] = spreads
        self._pnl[rows] = self._pnl_rows(pv)
        self._priced.update(rows)

    @staticmethod
    def _wanted(batch: MicroBatch) -> dict[int, set[int] | None]:
        """The contracts each of the batch's rows is read for, in row
        order: a quote reads its contract, a reval or VaR the whole book
        (``None``)."""
        wanted: dict[int, set[int] | None] = {r: set() for r in batch.rows}
        for req in batch.requests:
            for r in req.rows:
                if req.kind == "quote" and wanted[r] is not None:
                    wanted[r].add(req.option_index)
                elif req.kind != "quote":
                    wanted[r] = None
        return wanted

    def _check_cells(self, batch: MicroBatch) -> None:
        """Fail on the first invalid cell the batch reads, by tape row
        then book index."""
        wanted = self._wanted(batch)
        read = [
            (r, k)
            for r, k in self._bad_cells
            if r in wanted and (wanted[r] is None or k in wanted[r])
        ]
        if read:
            raise ValidationError(self._bad_cells[min(read)])

    # ------------------------------------------------------------------
    def _batch_weights(self, batch: MicroBatch) -> dict[int, int]:
        """Row weights, in row order: the kernel cells each row costs.

        The union of what the row's requests read (:meth:`_wanted`),
        never a sum: the card prices each row once however many requests
        share it.
        """
        return {
            r: self.n_positions if opts is None else len(opts)
            for r, opts in self._wanted(batch).items()
        }

    def _run_batch(self, batch: MicroBatch, dispatcher) -> None:
        """Answer one micro-batch and hand it to the lane's dispatcher.

        Host numerics: the batch's rows not yet in the table are priced
        in ONE whole-book kernel call
        (:meth:`~repro.risk.engine.ScenarioRiskEngine.quote_rows`), and
        every request reads the table.  The card sharding the
        dispatcher times, and the cells it charges, are the batch's own
        whatever the table already held.
        """
        new = [r for r in batch.rows if r not in self._priced]
        if new:
            self._fill(new)
        if self._bad_cells:
            self._check_cells(batch)
        dispatcher.run_batch(
            batch,
            self._values(batch.requests, self._spreads, self._pnl),
            self._batch_weights(batch),
        )

    def lane(
        self,
        faults: FaultPlan | None = None,
        *,
        sim: Simulation | None = None,
        hedge: HedgePolicy | None = None,
        retry: RetryPolicy | None = None,
    ) -> Lane:
        """A fresh replay lane of this server on a new timing rig.

        The rig's host and card resources are priced by the server's
        cost model (calibrated at construction); ``sim`` shares an
        existing clock, as the gateway does across its lanes.
        """
        rig = ClusterTimingRig(
            self.cost_model, self.link, self.n_cards, sim=sim,
            telemetry=self.telemetry,
        )
        return Lane(self, rig, faults, retry=retry, hedge=hedge)

    def serve(
        self,
        requests: Sequence[PricingRequest],
        *,
        faults: FaultPlan | None = None,
        hedge: HedgePolicy | None = None,
        retry: RetryPolicy | None = None,
        monitor=None,
    ) -> ServingResult:
        """Replay a request trace through the server on the unified clock.

        The sorted trace is the arrival source of one :class:`~repro.
        sim.Simulation` (:meth:`~repro.sim.Simulation.feed`); each
        arrival runs the server's :class:`~repro.serving.lane.Lane`:
        fire due linger timers, drain the in-flight window, reap
        expired pending work, apply the admission bound, and offer the
        arrival to the coalescer.  Dispatched batches reserve busy
        windows on the timing rig's host and card resources.

        Parameters
        ----------
        requests:
            The offered load; sorted internally by arrival time.
        faults:
            Optional :class:`~repro.faults.FaultPlan`; ``None`` is the
            empty plan, the fault-free replay.  Under a non-empty plan
            dispatch retries, trips breakers and walks the degradation
            ladder (see :mod:`repro.serving.faulted`), and the run's
            :class:`~repro.faults.FaultReport` lands on
            :attr:`last_fault_report`.
        hedge / retry:
            Dispatch policies; ``None`` picks defaults (hedging off,
            retry seeded from the plan).
        monitor:
            Optional :class:`~repro.monitor.Monitor`.  Attached to the
            replay's simulation before the event loop starts (the
            sampler rides trace hooks, so the event schedule — and
            therefore every reported number — is identical either way)
            and finalized against the result; the evaluation lands on
            ``monitor.result``.

        Returns
        -------
        ServingResult
            Latency/goodput/shed accounting plus the raw responses.
        """
        if not requests:
            raise ValidationError("request trace must be non-empty")
        trace = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        self._check_trace(trace)

        lane = self.lane(faults, hedge=hedge, retry=retry)
        sim = lane.rig.sim
        if monitor is not None:
            monitor.attach(
                sim, lane.metrics, n_cards=self.n_cards, health=lane.health
            )

        def on_arrival(req: PricingRequest) -> None:
            lane.tick(req.arrival_s)
            lane.offer(req, req.arrival_s)

        sim.feed(
            [req.arrival_s for req in trace], trace, on_arrival, label="arrival"
        )
        sim.run()
        lane.flush()
        # Tail batches may have scheduled retries past the last arrival.
        sim.run()

        result = lane.result()
        self.last_fault_report = lane.fault_report()
        if monitor is not None:
            monitor.finalize(result, plan=lane.plan, telemetry=self.telemetry)
        return result
