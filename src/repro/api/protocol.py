"""The pricing-backend protocol: results, capabilities, the backend.

Four PRs of growth left the repository with four parallel entry points
into the pricing core — :meth:`repro.engines.base.CDSEngineBase.run`,
the packed kernels of :mod:`repro.core.vector_pricing`, the risk
engine's revaluation methods and the quote server's dispatch path.  This
module defines the *one* contract they all meet:

* :class:`PriceResult` — the uniform answer: a ``(n_states, n_options)``
  spread surface, optional leg surfaces, and backend-specific metadata.
* :class:`BackendCapabilities` — the capability flags a
  :class:`~repro.api.session.PricingSession` negotiates against:
  ``supports_batch_tensor`` (one call prices many market states),
  ``supports_streaming`` (usable under the serving layer),
  ``supports_legs`` (PV surfaces available), ``simulated_timing``
  (results carry a simulated device timing).
* :class:`PricingBackend` — the abstract backend: bind a book once,
  then one method per input shape.  :meth:`~PricingBackend.price_state`
  prices one market state and is the one method a backend must
  implement; :meth:`~PricingBackend.price_rows` returns plain spread
  and leg arrays for validated rows of a :class:`MarketGrid`
  (:func:`tensor_row_indices`).  Its default prices the rows one state
  at a time, bit-identical to a batch kernel's override.

:func:`buyer_pv` is the one buyer-PV formula every PV path reduces legs
with.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.core.vector_pricing import shifted_recovery_row
from repro.errors import ValidationError

__all__ = [
    "BackendCapabilities",
    "MarketGrid",
    "LegSurfaces",
    "PriceResult",
    "PricingBackend",
    "buyer_pv",
    "tensor_row_indices",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend can do; the session negotiates against these flags.

    Attributes
    ----------
    supports_batch_tensor:
        One :meth:`PricingBackend.price_rows` call prices many market
        states in one kernel invocation.  Backends without it still
        price tensor rows, one :meth:`PricingBackend.price_state` call
        per row, bit-identically.
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

    Anything exposing these arrays works as the ``grid`` of
    :meth:`PricingBackend.price_rows` — in particular
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
    """The uniform outcome of one pricing call.

    Attributes
    ----------
    backend:
        Registry name of the backend that priced the call.
    spreads_bps:
        ``(n_states, n_options)`` par-spread surface — one market state
        has one row.
    legs:
        Leg surfaces when the call asked for them, else ``None``.
    meta:
        Backend-specific extras (simulated timing); never needed for the
        numbers.
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

    Subclasses bind a book once (:meth:`bind`), then price it through
    :meth:`price_state` and, optionally, a :meth:`price_rows` override.
    The class-level :attr:`capabilities`
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
    @abc.abstractmethod
    def price_state(
        self,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        recovery: np.ndarray | None = None,
        want_legs: bool = False,
    ) -> PriceResult:
        """Price the bound book under one market state.

        Parameters
        ----------
        yield_curve / hazard_curve:
            The market state.
        recovery:
            Optional ``(n_options,)`` recovery-rate override.
        want_legs:
            Return the leg surfaces too; a backend without
            ``supports_legs`` returns none (the session refuses such
            calls before they reach it).

        Returns
        -------
        PriceResult
            A ``(1, n_options)`` spread surface.
        """

    def price_rows(
        self,
        grid: MarketGrid,
        rows: np.ndarray,
        *,
        chunk_size: int | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...] | None]:
        """Spreads and legs for tensor rows: the per-batch hot path.

        No result object is built, and no capability is re-checked: the
        caller negotiated ``supports_legs`` once, when it opened its
        session.  This default prices each row with one
        :meth:`price_state` call on the grid's knot times, the
        per-scenario path the risk engine runs, so it is bit-identical
        to it; batch kernels override it with one direct kernel call.

        Parameters
        ----------
        grid:
            The market states.
        rows:
            Validated ``grid`` rows (:func:`tensor_row_indices`), in
            output order.
        chunk_size:
            States per internal kernel chunk (``None`` = automatic);
            the per-state default ignores it.

        Returns
        -------
        tuple
            ``(spreads_bps, (premium, protection, accrual,
            survival_at_maturity))``, each ``(len(rows), n_options)``;
            the legs are ``None`` on a backend without ``supports_legs``.
        """
        want_legs = self.capabilities.supports_legs
        base_recovery = np.asarray(
            [o.recovery_rate for o in self.options], dtype=np.float64
        )
        parts = [
            self.price_state(
                YieldCurve(grid.yield_times, grid.yield_values[i]),
                HazardCurve(grid.hazard_times, grid.hazard_values[i]),
                recovery=shifted_recovery_row(
                    base_recovery, float(grid.recovery_shifts[i])
                ),
                want_legs=want_legs,
            )
            for i in rows
        ]
        spreads = np.vstack([part.spreads_bps for part in parts])
        if not want_legs:
            return spreads, None
        return spreads, tuple(
            np.vstack([getattr(part.legs, leg.name) for part in parts])
            for leg in fields(LegSurfaces)
        )

    def close(self) -> None:
        """Release bound state (idempotent)."""
        self._options = None
