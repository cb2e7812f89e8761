"""Request and response types of the live quote-serving layer.

A :class:`PricingRequest` is one unit of client demand against the
serving system: a single-name quote, a whole-book revaluation or a
mini VaR refresh, each referencing one or more *market-state rows* of the
server's live :class:`~repro.risk.tensor.ScenarioTensor` tape.  Requests
carry an absolute deadline and a priority; the coalescer uses both when
forming micro-batches (priority orders admission into a full batch,
expired requests are shed instead of priced).

A :class:`PricingResponse` records the request's numerical answer next to
its full timing trace in *simulated* time — formation, completion,
latency, deadline outcome — which is what the serving metrics aggregate.
A :class:`ShedRecord` is the terminal state of a request the system chose
not to price, carrying a typed :class:`ShedReason`; a :class:`FailRecord`
is the terminal state of a request that was admitted and dispatched but
could not be completed despite retries (fault-injection runs only).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.core.validation import is_index
from repro.errors import ValidationError

__all__ = [
    "REQUEST_KINDS",
    "SHED_REASONS",
    "ShedReason",
    "PricingRequest",
    "PricingResponse",
    "ShedRecord",
    "FailRecord",
]

#: The three request families the server prices.
REQUEST_KINDS: tuple[str, ...] = ("quote", "reval", "var")


class ShedReason(str, enum.Enum):
    """Why a request was dropped instead of priced.

    A ``str`` subclass so the wire values (``"queue_full"``,
    ``"deadline"``) stay exactly what they were before the enum existed
    — existing string comparisons and JSON output are unchanged.

    * :attr:`BACKPRESSURE` — bounded-queue backpressure at admission;
    * :attr:`DEADLINE` — expired while pending, dropped at formation;
    * :attr:`CARD_FAILURE` — retry budget exhausted against crashing
      cards (the request's :class:`FailRecord` mirrors this);
    * :attr:`BREAKER_OPEN` — every candidate card's circuit breaker was
      open at dispatch time;
    * :attr:`DEGRADED` — shed by the degradation ladder while cluster
      capacity was reduced (lowest-priority tiers go first);
    * :attr:`QUOTA` — rejected at the gateway by the tenant's admission
      token bucket, before ever reaching a server's bounded queue.
    """

    BACKPRESSURE = "queue_full"
    DEADLINE = "deadline"
    CARD_FAILURE = "card_failure"
    BREAKER_OPEN = "breaker_open"
    DEGRADED = "degraded"
    QUOTA = "quota"

    def __str__(self) -> str:  # keep f-strings on the wire value
        return self.value


#: Legal shed-reason wire values (kept for backward compatibility).
SHED_REASONS: tuple[str, ...] = tuple(r.value for r in ShedReason)


@dataclass(frozen=True)
class PricingRequest:
    """One client request against the serving system.

    Attributes
    ----------
    request_id:
        Unique identifier (responses and shed records refer back to it).
    kind:
        ``quote`` (par spread of one contract under one market state),
        ``reval`` (whole-book P&L under one market state) or ``var``
        (VaR over a handful of market states).
    arrival_s:
        Arrival time in simulated seconds.
    deadline_s:
        Absolute deadline; a response completing later is *late* (it does
        not count toward goodput), a request still queued past it is shed.
    rows:
        Market-state row indices into the server's scenario-tensor tape.
        ``quote``/``reval`` carry exactly one row, ``var`` one or more.
    option_index:
        Book position being quoted (``quote`` only).
    priority:
        Larger is more urgent; the coalescer fills a size-capped batch in
        priority order.
    tenant:
        Owning tenant's name, when the request entered through the
        multi-tenant gateway (``None`` for direct server traffic).
    """

    request_id: int
    kind: str
    arrival_s: float
    deadline_s: float
    rows: tuple[int, ...]
    option_index: int | None = None
    priority: int = 0
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValidationError(
                f"unknown request kind {self.kind!r}; "
                f"choose from {sorted(REQUEST_KINDS)}"
            )
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise ValidationError(
                f"arrival_s must be finite and >= 0, got {self.arrival_s}"
            )
        if not math.isfinite(self.deadline_s) or self.deadline_s <= self.arrival_s:
            raise ValidationError(
                f"deadline_s must exceed arrival_s, got {self.deadline_s} "
                f"vs arrival {self.arrival_s}"
            )
        rows = self.rows
        if not rows or not all(type(r) is int and r >= 0 for r in rows):
            # Plain ints skip `is_index`, whose ABC check made stream
            # generation 30-45% slower.  Here NumPy integers pass, bools
            # and non-integers do not.
            if not all(map(is_index, rows)):
                raise ValidationError(
                    f"rows must be integer indices, got {rows!r}"
                )
            if not rows or any(not r >= 0 for r in rows):
                raise ValidationError(
                    "rows must be a non-empty tuple of non-negative indices"
                )
        if type(rows) is not tuple:
            # Stored as a tuple, so a request built from a list hashes.
            object.__setattr__(self, "rows", tuple(rows))
        if self.kind in ("quote", "reval") and len(self.rows) != 1:
            raise ValidationError(
                f"a {self.kind} request prices exactly one market state, "
                f"got {len(self.rows)} rows"
            )
        if self.kind == "quote":
            index = self.option_index
            if type(index) is not int and index is not None:
                if not is_index(index):
                    raise ValidationError(
                        f"option_index must be an integer, got {index!r}"
                    )
            if index is None or not index >= 0:
                raise ValidationError(
                    "a quote request needs a non-negative option_index"
                )
        elif self.option_index is not None:
            raise ValidationError(
                f"option_index only applies to quote requests, not {self.kind!r}"
            )

    @property
    def n_rows(self) -> int:
        """Market-state rows this request prices."""
        return len(self.rows)

    def n_cells(self, n_positions: int) -> int:
        """Kernel (row, option) cells this request costs on a card.

        A quote prices one contract under one state; ``reval`` and
        ``var`` reprice the whole book per row.
        """
        if self.kind == "quote":
            return 1
        return self.n_rows * n_positions


@dataclass(frozen=True)
class PricingResponse:
    """The priced outcome of one request, with its simulated timing.

    Attributes
    ----------
    request_id / kind:
        Which request this answers.
    value:
        Quote: par spread in bps.  Reval: portfolio P&L against base.
        Var: rank-based VaR over the request's rows.
    arrival_s / formed_s / completion_s:
        Arrival, micro-batch formation, and completion times.
    latency_s:
        ``completion_s - arrival_s``.
    met_deadline:
        Whether the response completed by the request's deadline.
    batch_id:
        The micro-batch that priced it.
    cards:
        Cluster cards that priced this request's rows.
    tenant:
        Owning tenant's name (gateway traffic only; ``None`` otherwise).
    """

    request_id: int
    kind: str
    value: float
    arrival_s: float
    formed_s: float
    completion_s: float
    latency_s: float
    met_deadline: bool
    batch_id: int
    cards: tuple[int, ...]
    tenant: str | None = None


@dataclass(frozen=True)
class ShedRecord:
    """A request the server dropped instead of pricing.

    Attributes
    ----------
    request:
        The dropped request.
    time_s:
        When it was dropped.
    reason:
        A :class:`ShedReason`.  Plain strings matching a reason's wire
        value are accepted and normalised to the enum, so legacy call
        sites (``reason="queue_full"``) keep working.
    """

    request: PricingRequest
    time_s: float
    reason: ShedReason

    def __post_init__(self) -> None:
        if not isinstance(self.reason, ShedReason):
            try:
                object.__setattr__(self, "reason", ShedReason(self.reason))
            except ValueError:
                raise ValidationError(
                    f"unknown shed reason {self.reason!r}; "
                    f"choose from {sorted(SHED_REASONS)}"
                ) from None


@dataclass(frozen=True)
class FailRecord:
    """A request that was admitted but failed despite retries.

    Only fault-injection runs produce these: the request's rows were
    dispatched, the dispatches kept dying (card crashes, breaker-open
    rejections) and the retry budget ran out.  Failed requests are a
    third terminal state next to completed and shed — the conservation
    property counts all three exactly once.

    Attributes
    ----------
    request:
        The failed request.
    time_s:
        When the retry budget was exhausted.
    attempts:
        Dispatch attempts made (first try included).
    reason:
        :attr:`ShedReason.CARD_FAILURE` or :attr:`ShedReason.BREAKER_OPEN`.
    """

    request: PricingRequest
    time_s: float
    attempts: int
    reason: ShedReason = ShedReason.CARD_FAILURE

    def __post_init__(self) -> None:
        if not isinstance(self.reason, ShedReason):
            try:
                object.__setattr__(self, "reason", ShedReason(self.reason))
            except ValueError:
                raise ValidationError(
                    f"unknown failure reason {self.reason!r}; "
                    f"choose from {sorted(SHED_REASONS)}"
                ) from None
        if not self.attempts >= 1:
            raise ValidationError(
                f"attempts must be >= 1, got {self.attempts}"
            )
