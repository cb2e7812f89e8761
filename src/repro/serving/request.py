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

from repro.core.types import slot_stores
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


def _check_request(kind, arrival_s, deadline_s, rows, option_index) -> None:
    """Every check of a :class:`PricingRequest`'s arguments (``rows``
    already a tuple), in order, raising
    :class:`~repro.errors.ValidationError` on the first that fails."""
    if kind not in REQUEST_KINDS:
        raise ValidationError(
            f"unknown request kind {kind!r}; "
            f"choose from {sorted(REQUEST_KINDS)}"
        )
    if not math.isfinite(arrival_s) or arrival_s < 0:
        raise ValidationError(
            f"arrival_s must be finite and >= 0, got {arrival_s}"
        )
    if not math.isfinite(deadline_s) or deadline_s <= arrival_s:
        raise ValidationError(
            f"deadline_s must exceed arrival_s, got {deadline_s} "
            f"vs arrival {arrival_s}"
        )
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
    if kind in ("quote", "reval") and len(rows) != 1:
        raise ValidationError(
            f"a {kind} request prices exactly one market state, "
            f"got {len(rows)} rows"
        )
    if kind == "quote":
        if type(option_index) is not int and option_index is not None:
            if not is_index(option_index):
                raise ValidationError(
                    f"option_index must be an integer, got {option_index!r}"
                )
        if option_index is None or not option_index >= 0:
            raise ValidationError(
                "a quote request needs a non-negative option_index"
            )
    elif option_index is not None:
        raise ValidationError(
            f"option_index only applies to quote requests, not {kind!r}"
        )


@dataclass(frozen=True, slots=True, init=False)
class PricingRequest:
    """One client request against the serving system.

    Built once per offered request, so its ``__init__`` is written out:
    a request of the shape the stream generators emit passes one chained
    test, anything else runs every check in turn, and each field is then
    stored through its slot (:func:`~repro.core.types.slot_stores`).
    The parameters are the fields, in order, with the same defaults;
    equality, hashing, ``repr``, ``dataclasses.replace`` and pickling
    are the dataclass machinery's.

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
        Any iterable is taken as ``tuple(rows)`` before it is checked,
        so a request built from a list, an iterator or an array equals,
        and hashes like, the one built from the tuple.
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

    def __init__(
        self, request_id: int, kind: str, arrival_s: float, deadline_s: float,
        rows: tuple[int, ...], option_index: int | None = None,
        priority: int = 0, tenant: str | None = None,
    ) -> None:
        if type(rows) is not tuple:
            rows = tuple(rows)
        # A one-row quote or reval on plain ints in time order passes
        # every check of `_check_request`; NaN and inf fail the chain.
        if not (
            0 <= arrival_s < deadline_s < math.inf
            and len(rows) == 1
            and type(rows[0]) is int
            and rows[0] >= 0
            and (
                (kind == "quote" and type(option_index) is int
                 and option_index >= 0)
                or (kind == "reval" and option_index is None)
            )
        ):
            _check_request(kind, arrival_s, deadline_s, rows, option_index)
        (
            set_request_id, set_kind, set_arrival_s, set_deadline_s,
            set_rows, set_option_index, set_priority, set_tenant,
        ) = _REQUEST_STORES
        set_request_id(self, request_id)
        set_kind(self, kind)
        set_arrival_s(self, arrival_s)
        set_deadline_s(self, deadline_s)
        set_rows(self, rows)
        set_option_index(self, option_index)
        set_priority(self, priority)
        set_tenant(self, tenant)

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


_REQUEST_STORES = slot_stores(PricingRequest)


@dataclass(frozen=True, slots=True, init=False)
class PricingResponse:
    """The priced outcome of one request, with its simulated timing.

    Built once per answered request: its ``__init__`` stores each field
    through its slot (:func:`~repro.core.types.slot_stores`), and checks
    nothing.

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

    def __init__(
        self, request_id: int, kind: str, value: float, arrival_s: float,
        formed_s: float, completion_s: float, latency_s: float,
        met_deadline: bool, batch_id: int, cards: tuple[int, ...],
        tenant: str | None = None,
    ) -> None:
        (
            set_request_id, set_kind, set_value, set_arrival_s, set_formed_s,
            set_completion_s, set_latency_s, set_met_deadline, set_batch_id,
            set_cards, set_tenant,
        ) = _RESPONSE_STORES
        set_request_id(self, request_id)
        set_kind(self, kind)
        set_value(self, value)
        set_arrival_s(self, arrival_s)
        set_formed_s(self, formed_s)
        set_completion_s(self, completion_s)
        set_latency_s(self, latency_s)
        set_met_deadline(self, met_deadline)
        set_batch_id(self, batch_id)
        set_cards(self, cards)
        set_tenant(self, tenant)


_RESPONSE_STORES = slot_stores(PricingResponse)


def _shed_reason(reason, what: str) -> ShedReason:
    """``reason`` as a :class:`ShedReason`, refusing an unknown one."""
    try:
        return ShedReason(reason)
    except ValueError:
        raise ValidationError(
            f"unknown {what} reason {reason!r}; "
            f"choose from {sorted(SHED_REASONS)}"
        ) from None


@dataclass(frozen=True, slots=True, init=False)
class ShedRecord:
    """A request the server dropped instead of pricing.

    Its ``__init__`` normalises ``reason`` and stores each field through
    its slot (:func:`~repro.core.types.slot_stores`).

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

    def __init__(
        self, request: PricingRequest, time_s: float, reason: ShedReason
    ) -> None:
        if not isinstance(reason, ShedReason):
            reason = _shed_reason(reason, "shed")
        set_request, set_time_s, set_reason = _SHED_STORES
        set_request(self, request)
        set_time_s(self, time_s)
        set_reason(self, reason)


_SHED_STORES = slot_stores(ShedRecord)


@dataclass(frozen=True, slots=True, init=False)
class FailRecord:
    """A request that was admitted but failed despite retries.

    Only fault-injection runs produce these: the request's rows were
    dispatched, the dispatches kept dying (card crashes, breaker-open
    rejections) and the retry budget ran out.  Failed requests are a
    third terminal state next to completed and shed — the conservation
    property counts all three exactly once.  The ``__init__`` normalises
    ``reason``, checks ``attempts`` and stores each field through its
    slot (:func:`~repro.core.types.slot_stores`).

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

    def __init__(
        self, request: PricingRequest, time_s: float, attempts: int,
        reason: ShedReason = ShedReason.CARD_FAILURE,
    ) -> None:
        if not isinstance(reason, ShedReason):
            reason = _shed_reason(reason, "failure")
        if not attempts >= 1:
            raise ValidationError(f"attempts must be >= 1, got {attempts}")
        set_request, set_time_s, set_attempts, set_reason = _FAIL_STORES
        set_request(self, request)
        set_time_s(self, time_s)
        set_attempts(self, attempts)
        set_reason(self, reason)


_FAIL_STORES = slot_stores(FailRecord)
