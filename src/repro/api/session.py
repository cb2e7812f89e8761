"""The :class:`PricingSession` facade: one public door into every backend.

A session binds a book to a backend once and then prices it: one market
state through the backend's ``price_state``, tensor rows through one
``price_rows`` call — one kernel call on batch-capable backends,
bit-identical per-state calls everywhere else.  The session validates
the input, refuses a ``want_legs`` call on a backend without leg
surfaces and checks the result's shape.  :func:`open_session` is the single
public entry point the risk, serving and analysis layers build on::

    from repro.api import open_session
    from repro.workloads.scenarios import PaperScenario

    sc = PaperScenario(n_options=16)
    with open_session("vectorized", sc.options()) as session:
        result = session.price_state(sc.yield_curve(), sc.hazard_curve())
        spreads = result.spreads_bps[0]
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.api.protocol import (
    BackendCapabilities,
    LegSurfaces,
    MarketGrid,
    PriceResult,
    PricingBackend,
    tensor_row_indices,
)
from repro.api.registry import create_backend
from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.core.validation import check_count
from repro.errors import CapabilityError, ValidationError

__all__ = ["PricingSession", "open_session", "capability_error"]

#: The capability flags :meth:`PricingSession.require` accepts, with
#: their phrasing in error messages.
_CAPABILITY_PHRASES = {
    "supports_batch_tensor": "batched tensor pricing",
    "supports_streaming": "streaming quote serving",
    "supports_legs": "leg surfaces",
    "simulated_timing": "simulated device timing",
}


def capability_error(
    backend_name: str, missing: Sequence[str], reason: str
) -> CapabilityError:
    """The error for a backend that lacks the ``missing`` capability flags.

    One message format for every consumer that checks flags:
    :meth:`PricingSession.require`, the session's ``want_legs`` check
    and the quote server's streaming check, which must run before
    anything binds the backend.
    """
    phrases = ", ".join(_CAPABILITY_PHRASES[f] for f in missing)
    return CapabilityError(
        f"{reason} needs {phrases}, which backend {backend_name!r} does "
        f"not advertise; choose one with {'/'.join(missing)} "
        "(`repro-cds backends` lists them)"
    )


class PricingSession:
    """A book bound to a backend, priced through one checked door.

    Parameters
    ----------
    backend:
        The backend to drive (bound to ``options`` at construction).
    options:
        The book, in result-column order.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle; defaults to
        the process-wide no-op :data:`~repro.telemetry.NULL_TELEMETRY`.
        Consumers read it back (:attr:`telemetry`) to hand one recording
        handle to everything they time.

    Notes
    -----
    Sessions are context managers; :meth:`close` releases the backend's
    bound state and further pricing raises.
    """

    def __init__(
        self,
        backend: PricingBackend,
        options: Sequence[CDSOption],
        *,
        telemetry=None,
    ) -> None:
        backend.bind(options)
        self._backend = backend
        self._closed = False
        if telemetry is None:
            from repro.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    @property
    def backend(self) -> PricingBackend:
        """The driven backend."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry name of the driven backend."""
        return self._backend.name

    @property
    def capabilities(self) -> BackendCapabilities:
        """The backend's capability flags (negotiation contract)."""
        return self._backend.capabilities

    @property
    def options(self) -> tuple[CDSOption, ...]:
        """The bound book."""
        return self._backend.options

    @property
    def n_options(self) -> int:
        """Bound book size."""
        return self._backend.n_options

    @property
    def telemetry(self):
        """The session's :class:`~repro.telemetry.Telemetry` handle."""
        return self._telemetry

    # ------------------------------------------------------------------
    def require(
        self, *flags: str, reason: str = "this operation"
    ) -> "PricingSession":
        """Assert capability flags, releasing the backend on failure.

        Consumer layers call this right after opening a session: if any
        flag is unknown or missing the session is **closed** (so a
        caller-supplied backend instance stays reusable).  An unknown
        flag raises :class:`~repro.errors.ValidationError`; a missing
        one :class:`~repro.errors.CapabilityError`, naming the backend
        and the capability.  Returns ``self`` for chaining.

        Parameters
        ----------
        flags:
            Boolean :class:`~repro.api.BackendCapabilities` flags that
            must be true.
        reason:
            What needs them, for the error message (e.g. ``"risk
            revaluation"``).
        """
        unknown = [f for f in flags if f not in _CAPABILITY_PHRASES]
        if unknown:
            self.close()
            raise ValidationError(
                f"unknown capability flag {unknown[0]!r}; choose from "
                f"{list(_CAPABILITY_PHRASES)}"
            )
        missing = [f for f in flags if not getattr(self.capabilities, f)]
        if missing:
            self.close()
            raise capability_error(self.backend_name, missing, reason)
        return self

    def price_state(
        self,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        recovery: np.ndarray | None = None,
        want_legs: bool = False,
    ) -> PriceResult:
        """Price the book under one market state.

        Raises
        ------
        CapabilityError
            If ``want_legs`` is set and the backend has no leg surfaces.
        """
        self._check_call(want_legs)
        result = self._backend.price_state(
            yield_curve, hazard_curve, recovery=recovery, want_legs=want_legs
        )
        self._check_shape(result.spreads_bps, 1)
        return result

    def price_tensor(
        self,
        tensor: MarketGrid,
        rows: Sequence[int] | np.ndarray | None = None,
        *,
        want_legs: bool = False,
        chunk_size: int | None = None,
    ) -> PriceResult:
        """Price the book under (selected rows of) a market-state batch.

        One :meth:`~repro.api.PricingBackend.price_rows` call prices the
        rows; ``rows=None`` prices all of them, and ``chunk_size`` bounds
        the states per kernel chunk without changing the numbers.

        Raises
        ------
        ValidationError
            If ``rows`` is not valid for :func:`tensor_row_indices` or
            ``chunk_size`` is below 1.
        CapabilityError
            If ``want_legs`` is set and the backend has no leg surfaces.
        """
        if rows is None:
            idx = np.arange(tensor.n_scenarios, dtype=np.intp)
        else:
            idx = tensor_row_indices(rows, tensor.n_scenarios)
        if chunk_size is not None:
            check_count(chunk_size, "chunk_size")
        self._check_call(want_legs)
        spreads, legs = self._backend.price_rows(
            tensor, idx, chunk_size=chunk_size
        )
        self._check_shape(spreads, idx.size)
        return PriceResult(
            backend=self.backend_name,
            spreads_bps=spreads,
            legs=(
                LegSurfaces.from_arrays(legs, idx.size, self.n_options)
                if want_legs
                else None
            ),
        )

    def spreads(
        self, yield_curve: YieldCurve, hazard_curve: HazardCurve
    ) -> np.ndarray:
        """Convenience: ``(n_options,)`` par spreads under one state."""
        return self.price_state(yield_curve, hazard_curve).spreads_bps[0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the backend's bound state (idempotent)."""
        if not self._closed:
            self._closed = True
            self._backend.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran."""
        return self._closed

    def _check_call(self, want_legs: bool) -> None:
        if self._closed:
            raise ValidationError("this pricing session is closed")
        if want_legs and not self.capabilities.supports_legs:
            raise capability_error(
                self.backend_name, ["supports_legs"], "pricing with want_legs"
            )

    def _check_shape(self, spreads: np.ndarray, n_states: int) -> None:
        if spreads.shape != (n_states, self.n_options):
            raise ValidationError(
                f"backend {self.backend_name!r} returned a {spreads.shape} "
                f"spread surface for a ({n_states}, {self.n_options}) request"
            )

    def __enter__(self) -> "PricingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else f"{self.n_options} option(s)"
        return f"PricingSession(backend={self.backend_name!r}, {state})"


def open_session(
    backend: str | PricingBackend = "vectorized",
    options: Sequence[CDSOption] | None = None,
    *,
    telemetry=None,
    **config,
) -> PricingSession:
    """Open a pricing session: the one public entry point of the API.

    Parameters
    ----------
    backend:
        Registry name (``cpu``, ``vectorized``, ``dataflow``) or an
        already-constructed backend instance.
    options:
        The book to bind.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle (pass
        ``Telemetry.recording()`` to capture spans and metrics; default
        is the no-op handle).
    config:
        Backend configuration, forwarded to the registry factory
        (``scenario``/``variant``/``n_engines`` for ``dataflow``...).
        Not allowed with a backend instance.

    Examples
    --------
    >>> from repro.api import open_session
    >>> from repro.workloads.scenarios import PaperScenario
    >>> sc = PaperScenario(n_rates=64, n_options=4)
    >>> with open_session("vectorized", sc.options()) as session:
    ...     session.spreads(sc.yield_curve(), sc.hazard_curve()).shape
    (4,)
    """
    if options is None:
        raise ValidationError(
            "open_session needs the book to bind (options=...)"
        )
    if isinstance(backend, str):
        backend = create_backend(backend, **config)
    elif config:
        raise ValidationError(
            "backend configuration keywords only apply when backend is a "
            "registry name"
        )
    return PricingSession(backend, options, telemetry=telemetry)
