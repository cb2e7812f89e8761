"""Micro-batch coalescing: the size-or-linger rule with deadlines.

The cluster layer's :class:`~repro.cluster.batching.BatchQueue` already
defines the serving system's coalescing *policy* — dispatch when
``max_batch`` requests are pending, or when the oldest has lingered
``linger_s`` — and this module reuses that object verbatim as the policy
carrier.  :class:`MicroBatchCoalescer` adds the semantics an online
server needs on top of the offline replay:

* **causality** — a linger timer that fires at ``t`` only sweeps requests
  that had *arrived* by ``t``, never ones admitted between the timer
  expiry and the moment the simulation notices it;
* **shed-on-deadline** — a pending request whose deadline has passed at
  formation time is dropped (recorded as a :class:`~repro.serving.
  request.ShedRecord`) instead of wasting a kernel slot on an answer
  nobody can use;
* **priorities** — when more requests are eligible than ``max_batch``,
  the batch fills in ``(priority desc, arrival, id)`` order.

Admission control (the bounded queue) lives one level up in
:class:`~repro.serving.lane.Lane`, which knows the in-flight
population; the coalescer itself never rejects an offered request.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.batching import BatchQueue
from repro.errors import ValidationError
from repro.serving.request import PricingRequest, ShedRecord

__all__ = ["MicroBatch", "MicroBatchCoalescer"]


@dataclass(frozen=True)
class MicroBatch:
    """One coalesced micro-batch handed to the dispatcher.

    Attributes
    ----------
    batch_id:
        Formation order (0-based).
    formed_s:
        When the batch formed: the size trigger's arrival instant, or the
        oldest member's linger expiry.
    requests:
        Members in ``(priority desc, arrival, id)`` order.
    """

    batch_id: int
    formed_s: float
    requests: tuple[PricingRequest, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValidationError("a micro-batch cannot be empty")

    @property
    def n_requests(self) -> int:
        """Requests in the batch."""
        return len(self.requests)

    @property
    def rows(self) -> tuple[int, ...]:
        """Sorted distinct market-state rows across the members."""
        return tuple(sorted({r for req in self.requests for r in req.rows}))


class MicroBatchCoalescer:
    """Online size-or-linger micro-batcher over a pending queue.

    Requests must be offered in non-decreasing arrival order (the server
    replays a sorted trace).  Each :meth:`offer` returns every batch whose
    trigger fired at or before the new arrival, in formation order;
    :meth:`flush` drains what remains after the trace ends.

    Parameters
    ----------
    queue:
        The size-or-linger policy (default :class:`~repro.cluster.
        batching.BatchQueue`): ``max_batch`` caps the batch size,
        ``linger_s`` bounds how long the oldest request may wait.
    """

    def __init__(self, queue: BatchQueue | None = None) -> None:
        self.queue = queue if queue is not None else BatchQueue()
        self._pending: list[PricingRequest] = []
        self._sheds: list[ShedRecord] = []
        self._next_batch_id = 0
        self._last_offer_s = 0.0

    @property
    def n_pending(self) -> int:
        """Requests waiting for a batch."""
        return len(self._pending)

    @property
    def sheds(self) -> tuple[ShedRecord, ...]:
        """Deadline sheds recorded so far, in shed order."""
        return tuple(self._sheds)

    # ------------------------------------------------------------------
    def _form(self, t: float) -> MicroBatch | None:
        """Form one batch at time ``t`` from the requests present by ``t``.

        Expired members are shed, the rest fill the batch in priority
        order up to ``max_batch``; overflow stays pending.  Returns
        ``None`` when every eligible request was shed.
        """
        # Pending is in arrival order, so eligibility is a prefix.
        k = 0
        while k < len(self._pending) and self._pending[k].arrival_s <= t:
            k += 1
        eligible, rest = self._pending[:k], self._pending[k:]
        alive = []
        for req in eligible:
            if req.deadline_s <= t:
                self._sheds.append(ShedRecord(req, t, "deadline"))
            else:
                alive.append(req)
        alive.sort(key=lambda r: (-r.priority, r.arrival_s, r.request_id))
        taken = alive[: self.queue.max_batch]
        leftover = alive[self.queue.max_batch :]
        leftover.sort(key=lambda r: (r.arrival_s, r.request_id))
        self._pending = leftover + rest
        if not taken:
            return None
        batch = MicroBatch(
            batch_id=self._next_batch_id, formed_s=t, requests=tuple(taken)
        )
        self._next_batch_id += 1
        return batch

    def advance(self, now: float) -> list[MicroBatch]:
        """Fire every linger timer due at or before ``now``.

        Parameters
        ----------
        now:
            Current simulated time (e.g. the next arrival's timestamp).

        Returns
        -------
        list[MicroBatch]
            Linger-triggered batches in formation order (often empty).
        """
        self._last_offer_s = max(self._last_offer_s, now)
        batches: list[MicroBatch] = []
        while self._pending:
            due = self._pending[0].arrival_s + self.queue.linger_s
            if due > now:
                break
            batch = self._form(due)
            if batch is not None:
                batches.append(batch)
        return batches

    def reap(self, now: float) -> int:
        """Shed every pending request whose deadline has passed ``now``.

        Expired requests can never be priced — any batch they could
        still join forms at or after ``now`` and would shed them at
        formation — so reaping early changes no outcome, but it stops
        dead work from counting toward the server's admission bound.
        Returns how many requests were shed.
        """
        alive = []
        reaped = 0
        for r in self._pending:
            if r.deadline_s <= now:
                self._sheds.append(ShedRecord(r, now, "deadline"))
                reaped += 1
            else:
                alive.append(r)
        self._pending = alive
        return reaped

    def offer(self, request: PricingRequest) -> list[MicroBatch]:
        """Admit one request, returning every batch its arrival triggers.

        Linger timers due before the arrival fire first (they formed
        earlier in simulated time); the arrival is then admitted, and a
        full pending queue dispatches immediately (the size trigger).

        Parameters
        ----------
        request:
            The admitted request; arrivals must be offered in
            non-decreasing time order.
        """
        if request.arrival_s < self._last_offer_s:
            raise ValidationError(
                f"requests must be offered in arrival order: "
                f"{request.arrival_s} after {self._last_offer_s}"
            )
        self._last_offer_s = request.arrival_s
        batches = self.advance(request.arrival_s)
        self._pending.append(request)
        if len(self._pending) >= self.queue.max_batch:
            batch = self._form(request.arrival_s)
            if batch is not None:
                batches.append(batch)
        return batches

    def flush(self) -> list[MicroBatch]:
        """Drain every pending request (the trace has ended).

        Each remaining group still forms at its linger expiry — the timer
        fires even though no further arrival will observe it — so
        latencies of tail requests stay honest.
        """
        batches: list[MicroBatch] = []
        while self._pending:
            batch = self._form(self._pending[0].arrival_s + self.queue.linger_s)
            if batch is not None:
                batches.append(batch)
        return batches
