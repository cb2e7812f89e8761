"""The pricing-backend protocol: typed requests, results, capabilities.

Four PRs of growth left the repository with four parallel entry points
into the pricing core — :meth:`repro.engines.base.CDSEngineBase.run`,
the packed kernels of :mod:`repro.core.vector_pricing`, the risk
engine's revaluation methods and the quote server's dispatch path.  This
module defines the *one* contract they all meet:

* :class:`PriceRequest` — a typed description of one pricing job: either
  a single market state (a yield/hazard curve pair) or a batch of tensor
  rows (any :class:`MarketGrid`, e.g. a lowered scenario set or a live
  market tape).
* :class:`PriceResult` — the uniform answer: a ``(n_states, n_options)``
  spread surface, optional leg surfaces, and backend-specific metadata.
* :class:`BackendCapabilities` — the capability flags a
  :class:`~repro.api.session.PricingSession` negotiates against:
  ``supports_batch_tensor`` (one call prices many market states),
  ``supports_streaming`` (usable under the serving layer),
  ``supports_legs`` (PV surfaces available), ``simulated_timing``
  (results carry a simulated device timing).
* :class:`PricingBackend` — the abstract backend: bind a book once,
  answer :class:`PriceRequest` objects, expose capabilities and a
  dispatch cost-model hook for the serving layer.

:func:`price_via` is the negotiation kernel shared by the session facade
and the cluster backend: a tensor request against a backend without
``supports_batch_tensor`` is transparently decomposed into per-state
requests (the per-scenario path), bit-identical to the batched one.

:meth:`PricingBackend.price_rows` is the hot-path entry beside it: plain
spread and leg arrays for validated tensor rows
(:func:`tensor_row_indices`), with no request or result object built
per call.
:func:`buyer_pv` is the one buyer-PV formula both paths reduce legs
with.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.core.vector_pricing import shifted_recovery_row
from repro.errors import CapabilityError, ValidationError

__all__ = [
    "BackendCapabilities",
    "MarketGrid",
    "PriceRequest",
    "LegSurfaces",
    "PriceResult",
    "PricingBackend",
    "price_via",
    "buyer_pv",
    "tensor_row_indices",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do; the session negotiates against these flags.

    Attributes
    ----------
    supports_batch_tensor:
        One :meth:`PricingBackend.price` call can price many market
        states (a tensor request) in one kernel invocation.  Backends
        without it still answer tensor requests through the session —
        :func:`price_via` decomposes the batch into per-state requests,
        bit-identically.
    supports_streaming:
        The backend can sit under the live serving layer: quote surfaces
        with leg breakdowns at micro-batch granularity.
    supports_legs:
        Leg surfaces (premium/protection/accrual/survival) are available,
        which is what PV-based consumers (risk, serving) require.
    simulated_timing:
        Results carry a simulated device timing in ``meta`` (the
        discrete-event FPGA backends) rather than being host-only math.
    description:
        One line for registry listings (``repro-cds backends``).
    """

    supports_batch_tensor: bool
    supports_streaming: bool
    supports_legs: bool
    simulated_timing: bool
    description: str = ""


@runtime_checkable
class MarketGrid(Protocol):
    """Structural type of a batch of market states on shared knot grids.

    Anything exposing these arrays works as the ``tensor`` of a
    :class:`PriceRequest` — in particular
    :class:`repro.risk.tensor.ScenarioTensor` (lowered scenario sets and
    live market tapes) satisfies it without :mod:`repro.api` importing
    the risk layer.
    """

    @property
    def yield_times(self) -> np.ndarray: ...  # pragma: no cover - protocol

    @property
    def yield_values(self) -> np.ndarray: ...  # pragma: no cover - protocol

    @property
    def hazard_times(self) -> np.ndarray: ...  # pragma: no cover - protocol

    @property
    def hazard_values(self) -> np.ndarray: ...  # pragma: no cover - protocol

    @property
    def recovery_shifts(self) -> np.ndarray: ...  # pragma: no cover - protocol

    @property
    def n_scenarios(self) -> int: ...  # pragma: no cover - protocol


def tensor_row_indices(
    rows: Sequence[int] | np.ndarray, n_states: int
) -> np.ndarray:
    """``rows`` as a validated 1-D index array into an ``n_states`` grid.

    Indices must be integers, as NumPy requires of an index array: a
    fractional index would otherwise truncate to another row, and a
    boolean one select row 0 or 1.

    Raises
    ------
    ValidationError
        If ``rows`` is empty, not a 1-D sequence of integers, or names a
        row outside ``[0, n_states)``.
    """
    idx = np.asarray(rows)
    if idx.ndim == 1 and idx.size == 0:
        raise ValidationError("rows must be non-empty when given")
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ValidationError(
            f"rows must be 1-D integer indices, got {idx.tolist()!r}"
        )
    if idx.min() < 0 or idx.max() >= n_states:
        bad = [r for r in idx.tolist() if not 0 <= r < n_states]
        raise ValidationError(
            f"rows {bad} fall outside the {n_states}-state tensor"
        )
    return idx.astype(np.intp, copy=False)


def buyer_pv(
    protection: np.ndarray,
    premium: np.ndarray,
    accrual: np.ndarray,
    unit_spread: np.ndarray,
) -> np.ndarray:
    """Unit-notional protection-buyer PV at contract ``unit_spread``.

    ``protection - unit_spread * (premium + accrual)``, in that operation
    order: every PV path reduces its legs here, so the batched and
    per-request values stay bit-identical.

    Parameters
    ----------
    protection / premium / accrual:
        ``(n_states, n_options)`` leg arrays.
    unit_spread:
        ``(n_options,)`` contracted running spreads as unit fractions
        (bps / 10 000).
    """
    return protection - unit_spread * (premium + accrual)


@dataclass(frozen=True, eq=False)
class PriceRequest:
    """One pricing job against a session's bound book.

    Compared by identity, like :class:`PriceResult` and
    :class:`LegSurfaces` — the optional array field makes a field-wise
    ``==`` ill-defined.

    Exactly one market-state form must be given:

    * **state** — a ``yield_curve``/``hazard_curve`` pair (one market
      state, the whole book), optionally with a per-option ``recovery``
      override;
    * **tensor** — a :class:`MarketGrid` plus optional ``rows`` selecting
      which of its states to price, in output order.

    Attributes
    ----------
    yield_curve / hazard_curve:
        The single market state (state requests).
    tensor:
        The market-state batch (tensor requests).
    rows:
        Tensor rows to price, in output order; ``None`` prices every row.
        Validated by :func:`tensor_row_indices` and stored as a tuple of
        ints.
    recovery:
        Optional ``(n_options,)`` recovery-rate override (state requests
        only; tensor requests carry shifts in the grid itself).
    want_legs:
        Request the leg surfaces (needed for PVs); backends without
        ``supports_legs`` refuse such requests.
    chunk_size:
        States per internal kernel chunk for batch-capable backends
        (``None`` = automatic); never changes the numbers.
    """

    yield_curve: YieldCurve | None = None
    hazard_curve: HazardCurve | None = None
    tensor: MarketGrid | None = None
    rows: tuple[int, ...] | None = None
    recovery: np.ndarray | None = None
    want_legs: bool = False
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        has_state = self.yield_curve is not None or self.hazard_curve is not None
        if self.tensor is None:
            if self.yield_curve is None or self.hazard_curve is None:
                raise ValidationError(
                    "a state request needs both yield_curve and hazard_curve"
                )
            if self.rows is not None:
                raise ValidationError("rows only apply to tensor requests")
        else:
            if has_state:
                raise ValidationError(
                    "give either a curve pair or a tensor, not both"
                )
            if self.recovery is not None:
                raise ValidationError(
                    "recovery overrides only apply to state requests; tensor "
                    "requests carry recovery_shifts in the grid"
                )
            if self.rows is not None:
                idx = tensor_row_indices(self.rows, self.tensor.n_scenarios)
                object.__setattr__(self, "rows", tuple(idx.tolist()))
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValidationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )

    # ------------------------------------------------------------------
    @classmethod
    def state(
        cls,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        recovery: np.ndarray | None = None,
        want_legs: bool = False,
    ) -> "PriceRequest":
        """A single-market-state request."""
        return cls(
            yield_curve=yield_curve,
            hazard_curve=hazard_curve,
            recovery=recovery,
            want_legs=want_legs,
        )

    @classmethod
    def tensor_rows(
        cls,
        tensor: MarketGrid,
        rows: Sequence[int] | np.ndarray | None = None,
        *,
        want_legs: bool = False,
        chunk_size: int | None = None,
    ) -> "PriceRequest":
        """A batched request over ``tensor`` (all rows when ``rows=None``)."""
        return cls(
            tensor=tensor,
            rows=rows,
            want_legs=want_legs,
            chunk_size=chunk_size,
        )

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"state"`` or ``"tensor"``."""
        return "state" if self.tensor is None else "tensor"

    @property
    def row_indices(self) -> np.ndarray:
        """Tensor rows this request prices (tensor requests only)."""
        if self.tensor is None:
            raise ValidationError("state requests have no tensor rows")
        if self.rows is None:
            return np.arange(self.tensor.n_scenarios, dtype=np.intp)
        return np.asarray(self.rows, dtype=np.intp)

    @property
    def n_states(self) -> int:
        """Market states this request prices."""
        return 1 if self.tensor is None else int(self.row_indices.size)


@dataclass(frozen=True, eq=False)
class LegSurfaces:
    """Per-leg PV surfaces, each of shape ``(n_states, n_options)``.

    The unit-notional quote surfaces every PV consumer derives from:
    ``annuity`` and :meth:`buyer_pv` centralise the two derived
    quantities the risk and serving layers used to recompute locally.
    """

    premium: np.ndarray
    protection: np.ndarray
    accrual: np.ndarray
    survival_at_maturity: np.ndarray

    @property
    def annuity(self) -> np.ndarray:
        """Risky annuity: premium plus accrual-on-default."""
        return self.premium + self.accrual

    def buyer_pv(self, unit_spread: np.ndarray) -> np.ndarray:
        """Unit-notional protection-buyer PV at contract ``unit_spread``.

        Parameters
        ----------
        unit_spread:
            ``(n_options,)`` contracted running spreads as unit fractions
            (bps / 10 000).
        """
        return buyer_pv(
            self.protection, self.premium, self.accrual, unit_spread
        )

    @classmethod
    def from_arrays(
        cls, legs: tuple[np.ndarray, ...], n_states: int, n_options: int
    ) -> "LegSurfaces":
        """Build from a kernel's raw leg tuple, normalising to 2-D."""
        premium, protection, accrual, survival = (
            np.asarray(a, dtype=np.float64).reshape(n_states, n_options)
            for a in legs
        )
        return cls(
            premium=premium,
            protection=protection,
            accrual=accrual,
            survival_at_maturity=survival,
        )


@dataclass(frozen=True, eq=False)
class PriceResult:
    """The uniform outcome of one :class:`PriceRequest`.

    Attributes
    ----------
    backend:
        Registry name of the backend that priced the request.
    spreads_bps:
        ``(n_states, n_options)`` par-spread surface — state requests
        have one row.
    legs:
        Leg surfaces when the request asked for them, else ``None``.
    meta:
        Backend-specific extras (simulated timing, shard assignment,
        negotiation notes); never needed for the numbers.
    """

    backend: str
    spreads_bps: np.ndarray
    legs: LegSurfaces | None = None
    meta: Mapping[str, object] = field(default_factory=dict, repr=False)

    @property
    def n_states(self) -> int:
        """Market states priced."""
        return int(self.spreads_bps.shape[0])

    @property
    def n_options(self) -> int:
        """Book size."""
        return int(self.spreads_bps.shape[1])


class PricingBackend(abc.ABC):
    """One pricing implementation behind the unified API.

    Subclasses bind a book once (:meth:`bind`), then answer
    :class:`PriceRequest` objects.  The class-level :attr:`capabilities`
    are the contract the session facade negotiates against — a backend
    must honour every flag it advertises (the conformance suite checks
    each registered backend).
    """

    #: Registry name; subclasses override.
    name = "abstract"

    #: Capability flags; subclasses override.
    capabilities = BackendCapabilities(
        supports_batch_tensor=False,
        supports_streaming=False,
        supports_legs=False,
        simulated_timing=False,
    )

    def __init__(self) -> None:
        self._options: tuple[CDSOption, ...] | None = None

    # ------------------------------------------------------------------
    def bind(self, options: Sequence[CDSOption]) -> None:
        """Attach the book this backend will price (packs once).

        A backend instance serves one bound book at a time: rebinding is
        refused while a book is attached — a silent rebind would repoint
        every session sharing the instance at the new book.  Call
        :meth:`close` first to release the binding.

        Parameters
        ----------
        options:
            The contracts, in result-column order.
        """
        if self._options is not None:
            raise ValidationError(
                f"backend {self.name!r} is already bound to a "
                f"{len(self._options)}-option book; close() it before "
                "rebinding (one backend instance serves one session)"
            )
        opts = tuple(options)
        if not opts:
            raise ValidationError("a backend needs at least one option")
        self._options = opts
        self._on_bind(list(opts))

    def _on_bind(self, options: list[CDSOption]) -> None:
        """Subclass hook: precompute bound-book state (packing etc.)."""

    @property
    def options(self) -> tuple[CDSOption, ...]:
        """The bound book (raises until :meth:`bind` ran)."""
        if self._options is None:
            raise ValidationError(
                f"backend {self.name!r} has no bound book; call bind() "
                "(or go through repro.api.open_session)"
            )
        return self._options

    @property
    def n_options(self) -> int:
        """Bound book size."""
        return len(self.options)

    # ------------------------------------------------------------------
    def price(self, request: PriceRequest) -> PriceResult:
        """Answer one request (the book must be bound).

        Tensor requests require ``supports_batch_tensor``; use
        :func:`price_via` (or the session facade) to have unsupported
        batches decomposed into per-state requests automatically.
        """
        if request.want_legs and not self.capabilities.supports_legs:
            raise CapabilityError(
                f"backend {self.name!r} does not produce leg surfaces "
                "(capabilities.supports_legs is False)"
            )
        if request.kind == "state":
            result = self._price_state(request)
        else:
            if not self.capabilities.supports_batch_tensor:
                raise CapabilityError(
                    f"backend {self.name!r} cannot price tensor batches "
                    "directly; negotiate through the session facade"
                )
            result = self._price_tensor(request)
        if result.spreads_bps.shape != (request.n_states, self.n_options):
            raise ValidationError(
                f"backend {self.name!r} returned a "
                f"{result.spreads_bps.shape} spread surface for a "
                f"({request.n_states}, {self.n_options}) request"
            )
        return result

    def price_rows(
        self,
        grid: MarketGrid,
        rows: np.ndarray,
        *,
        chunk_size: int | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Spreads and legs for tensor rows: the per-batch hot path.

        No request or result object is built, and no capability is
        re-checked: the caller negotiated ``supports_legs`` once, when it
        opened its session.  This default answers through
        :func:`price_via`, so a backend without ``supports_batch_tensor``
        keeps its per-state negotiation; batch kernels override it with
        one direct kernel call.

        Parameters
        ----------
        grid:
            The market states.
        rows:
            Validated ``grid`` rows (:func:`tensor_row_indices`), in
            output order.
        chunk_size:
            States per internal kernel chunk (``None`` = automatic).

        Returns
        -------
        tuple
            ``(spreads_bps, (premium, protection, accrual,
            survival_at_maturity))``, each ``(len(rows), n_options)``.
        """
        result = price_via(
            self,
            PriceRequest.tensor_rows(
                grid, rows, want_legs=True, chunk_size=chunk_size
            ),
        )
        legs = result.legs
        return result.spreads_bps, (
            legs.premium,
            legs.protection,
            legs.accrual,
            legs.survival_at_maturity,
        )

    @abc.abstractmethod
    def _price_state(self, request: PriceRequest) -> PriceResult:
        """Price one market state (``request.kind == "state"``)."""

    def _price_tensor(self, request: PriceRequest) -> PriceResult:
        """Price a tensor batch; only batch-capable backends override."""
        raise CapabilityError(
            f"backend {self.name!r} does not implement tensor batches"
        )

    # ------------------------------------------------------------------
    def dispatch_cost_model(
        self,
        scenario,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        n_engines: int = 5,
    ):
        """Cost-model hook: simulated per-dispatch economics of this backend.

        The serving layer prices micro-batch dispatch decisions against
        this model.  The default calibrates
        :class:`repro.api.cost.DispatchCostModel` from one representative
        card batch over the bound book; backends may override (a real
        device backend would measure instead of simulate).

        Parameters
        ----------
        scenario:
            Experimental configuration
            (:class:`~repro.workloads.scenarios.PaperScenario`).
        yield_curve / hazard_curve:
            Base rate tables (sizes drive the simulated costs).
        n_engines:
            CDS engines per card.
        """
        from repro.api.cost import DispatchCostModel

        return DispatchCostModel.calibrate(
            scenario,
            list(self.options),
            yield_curve,
            hazard_curve,
            n_engines=n_engines,
        )

    def close(self) -> None:
        """Release bound state (idempotent)."""
        self._options = None


# ----------------------------------------------------------------------
def _decompose_tensor(
    backend: PricingBackend, request: PriceRequest
) -> PriceResult:
    """Price a tensor request one state at a time (negotiated fallback).

    Each row becomes a curve pair on the grid's knot times — exactly the
    per-scenario path the risk engine ran before the redesign, so the
    stacked result is bit-identical to it (and to the batched kernel,
    which the property suite pins).
    """
    grid = request.tensor
    assert grid is not None
    idx = request.row_indices
    base_recovery = np.asarray(
        [o.recovery_rate for o in backend.options], dtype=np.float64
    )
    spreads = np.empty((idx.size, backend.n_options), dtype=np.float64)
    legs: list[LegSurfaces] = []
    for out_row, i in enumerate(idx):
        recovery = shifted_recovery_row(
            base_recovery, float(grid.recovery_shifts[i])
        )
        sub = PriceRequest.state(
            YieldCurve(grid.yield_times, grid.yield_values[i]),
            HazardCurve(grid.hazard_times, grid.hazard_values[i]),
            recovery=recovery,
            want_legs=request.want_legs,
        )
        part = backend.price(sub)
        spreads[out_row] = part.spreads_bps[0]
        if request.want_legs:
            assert part.legs is not None
            legs.append(part.legs)
    surfaces = None
    if request.want_legs:
        surfaces = LegSurfaces(
            premium=np.vstack([l.premium for l in legs]),
            protection=np.vstack([l.protection for l in legs]),
            accrual=np.vstack([l.accrual for l in legs]),
            survival_at_maturity=np.vstack(
                [l.survival_at_maturity for l in legs]
            ),
        )
    return PriceResult(
        backend=backend.name,
        spreads_bps=spreads,
        legs=surfaces,
        meta={"negotiated": "per-state", "n_calls": int(idx.size)},
    )


def price_via(backend: PricingBackend, request: PriceRequest) -> PriceResult:
    """Answer ``request`` on ``backend``, negotiating around missing flags.

    The one rule of capability negotiation: a tensor request against a
    backend without ``supports_batch_tensor`` runs the per-state path
    (bit-identical, slower); every other capability mismatch is an error
    the caller must resolve by choosing another backend.
    """
    if request.want_legs and not backend.capabilities.supports_legs:
        raise CapabilityError(
            f"backend {backend.name!r} does not produce leg surfaces; "
            "PV consumers need a supports_legs backend "
            "(e.g. 'vectorized' or 'cpu')"
        )
    if (
        request.kind == "tensor"
        and not backend.capabilities.supports_batch_tensor
    ):
        return _decompose_tensor(backend, request)
    return backend.price(request)
