"""The three built-in pricing backends behind the registry.

============  =========================================================
``cpu``       The scalar reference pricer (:mod:`repro.core.pricing`)
              looped over the book — the repository's numerical ground
              truth, slow on purpose.
``vectorized``  The packed NumPy kernels of
              :mod:`repro.core.vector_pricing`: one market state per
              :func:`~repro.core.vector_pricing.price_packed_book`
              call, whole tensor batches per
              :func:`~repro.core.vector_pricing.price_packed_many`
              call.  The workhorse behind risk and serving.
``dataflow``  A simulated FPGA engine variant
              (:mod:`repro.engines`): real spreads from the
              discrete-event dataflow network plus the simulated
              kernel/PCIe timing in ``meta["engine_result"]``.
============  =========================================================

Every backend produces results bit-identical to the pre-API entry point
it wraps; the property suite (``tests/properties/test_prop_api.py``)
pins that, and the conformance suite
(``tests/api/test_backend_contract.py``) checks the capability flags.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.api.protocol import (
    BackendCapabilities,
    LegSurfaces,
    MarketGrid,
    PriceResult,
    PricingBackend,
)
from repro.api.registry import register_backend
from repro.core.curves import HazardCurve, YieldCurve
from repro.core.pricing import CDSPricer
from repro.core.types import CDSOption
from repro.core.vector_pricing import (
    PackedPortfolio,
    price_packed_book,
    price_packed_many,
)
from repro.engines import (
    InterOptionDataflowEngine,
    MultiEngineSystem,
    OptimisedDataflowEngine,
    VectorizedDataflowEngine,
    XilinxBaselineEngine,
)
from repro.errors import CapabilityError, ValidationError
from repro.workloads.scenarios import PaperScenario

__all__ = [
    "CpuBackend",
    "VectorizedBackend",
    "DataflowBackend",
]


class CpuBackend(PricingBackend):
    """The scalar reference pricer, looped over the book.

    Ground truth: every other backend's conformance is measured against
    this one.  No batch-tensor support: tensor rows go through the
    default per-state :meth:`~repro.api.PricingBackend.price_rows`.
    """

    name = "cpu"
    capabilities = BackendCapabilities(
        supports_batch_tensor=False,
        supports_streaming=True,
        supports_legs=True,
        simulated_timing=False,
        description="scalar reference pricer (ground truth, per-option loop)",
    )

    def price_state(
        self,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        recovery: np.ndarray | None = None,
        want_legs: bool = False,
    ) -> PriceResult:
        pricer = CDSPricer(yield_curve=yield_curve, hazard_curve=hazard_curve)
        options = list(self.options)
        if recovery is not None:
            rec = np.asarray(recovery, dtype=np.float64)
            if rec.shape != (self.n_options,):
                raise ValidationError(
                    f"recovery override must have shape ({self.n_options},), "
                    f"got {rec.shape}"
                )
            options = [
                replace(o, recovery_rate=float(r))
                for o, r in zip(options, rec)
            ]
        results = [pricer.price(o) for o in options]
        spreads = np.asarray(
            [r.spread_bps for r in results], dtype=np.float64
        ).reshape(1, self.n_options)
        legs = None
        if want_legs:
            legs = LegSurfaces.from_arrays(
                (
                    np.asarray([r.legs.premium_leg for r in results]),
                    np.asarray([r.legs.protection_leg for r in results]),
                    np.asarray([r.legs.accrual_leg for r in results]),
                    np.asarray(
                        [r.legs.survival_at_maturity for r in results]
                    ),
                ),
                1,
                self.n_options,
            )
        return PriceResult(backend=self.name, spreads_bps=spreads, legs=legs)


class VectorizedBackend(PricingBackend):
    """The packed NumPy kernels: the host-side workhorse.

    Binding packs the book once (:class:`~repro.core.vector_pricing.
    PackedPortfolio`), so every call pays only curve evaluation and
    the leg reductions — exactly the pre-redesign hot path of the risk
    and serving layers, now behind the uniform protocol.
    """

    name = "vectorized"
    capabilities = BackendCapabilities(
        supports_batch_tensor=True,
        supports_streaming=True,
        supports_legs=True,
        simulated_timing=False,
        description="packed NumPy kernels (price_packed_book/_many)",
    )

    def __init__(self) -> None:
        super().__init__()
        self._packed: PackedPortfolio | None = None

    def _on_bind(self, options: list[CDSOption]) -> None:
        self._packed = PackedPortfolio.pack(options)

    @property
    def packed(self) -> PackedPortfolio:
        """The packed book (state-independent kernel intermediates)."""
        if self._packed is None:
            raise ValidationError("backend 'vectorized' has no bound book")
        return self._packed

    def price_state(
        self,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        recovery: np.ndarray | None = None,
        want_legs: bool = False,
    ) -> PriceResult:
        spreads, legs = price_packed_book(
            self.packed,
            yield_curve,
            hazard_curve,
            recovery=recovery,
            want_legs=want_legs,
        )
        return PriceResult(
            backend=self.name,
            spreads_bps=spreads.reshape(1, self.n_options),
            legs=(
                LegSurfaces.from_arrays(legs, 1, self.n_options)
                if want_legs
                else None
            ),
        )

    def price_rows(
        self,
        grid: MarketGrid,
        rows: np.ndarray,
        *,
        chunk_size: int | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """One :func:`~repro.core.vector_pricing.price_packed_many` call
        for ``rows``."""
        return price_packed_many(
            self.packed,
            grid.yield_times,
            grid.yield_values[rows],
            grid.hazard_times,
            grid.hazard_values[rows],
            recovery_shifts=grid.recovery_shifts[rows],
            chunk_size=chunk_size,
            row_ids=rows,
        )

    def close(self) -> None:
        self._packed = None
        super().close()


class DataflowBackend(PricingBackend):
    """A simulated FPGA engine variant behind the protocol.

    Spreads are genuine outputs of the discrete-event dataflow network
    (bit-identical to the engine's direct :meth:`~repro.engines.base.
    CDSEngineBase.run`); the simulated
    :class:`~repro.engines.base.EngineResult` rides along in
    ``meta["engine_result"]``.  No leg surfaces — the fabric engines
    emit spreads only, so ``want_legs`` returns none — and PV consumers
    (risk, serving) must choose a ``supports_legs`` backend instead.

    Parameters
    ----------
    scenario:
        Experimental configuration (default
        :class:`~repro.workloads.scenarios.PaperScenario`).
    variant:
        Engine variant: ``baseline``, ``optimised``, ``interoption``,
        ``vectorised`` (alias ``vectorized``) or ``multi``.
    n_engines:
        Engine instances for the ``multi`` variant.
    """

    name = "dataflow"
    capabilities = BackendCapabilities(
        supports_batch_tensor=False,
        supports_streaming=False,
        supports_legs=False,
        simulated_timing=True,
        description="simulated FPGA dataflow engine (spreads + DES timing)",
    )

    _VARIANTS = {
        "baseline": XilinxBaselineEngine,
        "optimised": OptimisedDataflowEngine,
        "interoption": InterOptionDataflowEngine,
        "vectorised": VectorizedDataflowEngine,
        "vectorized": VectorizedDataflowEngine,
        "multi": MultiEngineSystem,
    }

    def __init__(
        self,
        scenario: PaperScenario | None = None,
        variant: str = "vectorised",
        n_engines: int = 5,
    ) -> None:
        super().__init__()
        if variant not in self._VARIANTS:
            raise ValidationError(
                f"unknown dataflow variant {variant!r}; choose from "
                f"{sorted(set(self._VARIANTS))}"
            )
        self.scenario = scenario if scenario is not None else PaperScenario()
        self.variant = variant
        cls = self._VARIANTS[variant]
        if cls is MultiEngineSystem:
            self._engine = cls(self.scenario, n_engines=n_engines)
        else:
            self._engine = cls(self.scenario)

    def price_state(
        self,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        recovery: np.ndarray | None = None,
        want_legs: bool = False,
    ) -> PriceResult:
        if recovery is not None:
            raise CapabilityError(
                "backend 'dataflow' prices contracts as written; recovery "
                "overrides need the 'cpu' or 'vectorized' backend"
            )
        result = self._engine.run(list(self.options), yield_curve, hazard_curve)
        return PriceResult(
            backend=self.name,
            spreads_bps=result.spreads_bps.reshape(1, self.n_options),
            meta={"engine_result": result},
        )


register_backend("cpu", CpuBackend)
register_backend("vectorized", VectorizedBackend)
register_backend("dataflow", DataflowBackend)
