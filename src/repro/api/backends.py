"""The four built-in pricing backends behind the registry.

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
``cluster``   A wrapper sharding tensor rows across ``n_cards``
              simulated cards with any
              :class:`~repro.cluster.scheduler.ClusterScheduler`
              policy, delegating each shard to **any** base backend.
              Numerics are bit-identical to the base backend; only the
              shard assignment (``meta["assignment"]``) differs.
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
    PriceRequest,
    PriceResult,
    PricingBackend,
    price_via,
)
from repro.api.registry import register_backend
from repro.cluster.scheduler import (
    ClusterScheduler,
    make_scheduler,
    shard_scenarios,
)
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
    "ClusterBackend",
]


class CpuBackend(PricingBackend):
    """The scalar reference pricer, looped over the book.

    Ground truth: every other backend's conformance is measured against
    this one.  No batch-tensor support — the session decomposes tensor
    requests into per-state calls.
    """

    name = "cpu"
    capabilities = BackendCapabilities(
        supports_batch_tensor=False,
        supports_streaming=True,
        supports_legs=True,
        simulated_timing=False,
        description="scalar reference pricer (ground truth, per-option loop)",
    )

    def _price_state(self, request: PriceRequest) -> PriceResult:
        pricer = CDSPricer(
            yield_curve=request.yield_curve, hazard_curve=request.hazard_curve
        )
        options = list(self.options)
        if request.recovery is not None:
            rec = np.asarray(request.recovery, dtype=np.float64)
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
        if request.want_legs:
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
    PackedPortfolio`), so every request pays only curve evaluation and
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

    def _price_state(self, request: PriceRequest) -> PriceResult:
        spreads, legs = price_packed_book(
            self.packed,
            request.yield_curve,
            request.hazard_curve,
            recovery=request.recovery,
            want_legs=request.want_legs,
        )
        return PriceResult(
            backend=self.name,
            spreads_bps=spreads.reshape(1, self.n_options),
            legs=(
                LegSurfaces.from_arrays(legs, 1, self.n_options)
                if request.want_legs
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

    def _price_tensor(self, request: PriceRequest) -> PriceResult:
        idx = request.row_indices
        spreads, legs = self.price_rows(
            request.tensor, idx, chunk_size=request.chunk_size
        )
        return PriceResult(
            backend=self.name,
            spreads_bps=spreads,
            legs=(
                LegSurfaces.from_arrays(legs, idx.size, self.n_options)
                if request.want_legs
                else None
            ),
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
    emit spreads only — so PV consumers (risk, serving) must negotiate a
    ``supports_legs`` backend instead.

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

    def _price_state(self, request: PriceRequest) -> PriceResult:
        if request.recovery is not None:
            raise CapabilityError(
                "backend 'dataflow' prices contracts as written; recovery "
                "overrides need the 'cpu' or 'vectorized' backend"
            )
        result = self._engine.run(
            list(self.options), request.yield_curve, request.hazard_curve
        )
        return PriceResult(
            backend=self.name,
            spreads_bps=result.spreads_bps.reshape(1, self.n_options),
            meta={"engine_result": result},
        )


class ClusterBackend(PricingBackend):
    """Shard tensor rows across simulated cards, over **any** base backend.

    The wrapper owns only the *where*: request rows are partitioned by a
    cluster scheduling policy and each shard is delegated, in one call,
    to the wrapped base backend.  The *what* — every number — is
    bit-identical to the base backend pricing the same rows directly;
    the shard assignment rides along in ``meta["assignment"]`` for
    timing roll-ups.

    Tensor sharding engages when the wrapped base advertises
    ``supports_batch_tensor`` (the wrapper mirrors the base's flag, so
    for a non-batch base the session facade decomposes tensor requests
    per state *before* they reach the wrapper and no assignment is
    recorded).  The card plan is :func:`~repro.cluster.scheduler.
    shard_scenarios`, the one the risk engine revalues and times with.

    Parameters
    ----------
    base:
        Registry name or backend instance to wrap (default
        ``vectorized``).
    n_cards:
        Cards to shard across.
    scheduler:
        Sharding policy — name or
        :class:`~repro.cluster.scheduler.ClusterScheduler` instance.
    base_config:
        Extra keywords forwarded to the base backend's factory when
        ``base`` is a registry name.
    """

    name = "cluster"

    def __init__(
        self,
        base: str | PricingBackend = "vectorized",
        n_cards: int = 1,
        scheduler: ClusterScheduler | str = "least-loaded",
        **base_config,
    ) -> None:
        super().__init__()
        if n_cards < 1:
            raise ValidationError(f"n_cards must be >= 1, got {n_cards}")
        if isinstance(base, str):
            from repro.api.registry import create_backend

            base = create_backend(base, **base_config)
        elif base_config:
            raise ValidationError(
                "base_config keywords only apply when base is a registry name"
            )
        if isinstance(base, ClusterBackend):
            raise ValidationError("cluster backends do not nest")
        self.base = base
        self.n_cards = n_cards
        self.scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )

    @property
    def capabilities(self) -> BackendCapabilities:  # type: ignore[override]
        """Derived from the wrapped base backend."""
        base = self.base.capabilities
        return BackendCapabilities(
            supports_batch_tensor=base.supports_batch_tensor,
            supports_streaming=base.supports_streaming,
            supports_legs=base.supports_legs,
            simulated_timing=True,
            description=(
                f"{self.n_cards}-card {self.scheduler.name} shard over "
                f"'{self.base.name}'"
            ),
        )

    def _on_bind(self, options: list[CDSOption]) -> None:
        self.base.bind(options)

    def _price_state(self, request: PriceRequest) -> PriceResult:
        part = price_via(self.base, request)
        return PriceResult(
            backend=self.name,
            spreads_bps=part.spreads_bps,
            legs=part.legs,
            meta={"base": self.base.name, "n_cards": self.n_cards, **part.meta},
        )

    def price_rows(
        self,
        grid: MarketGrid,
        rows: np.ndarray,
        *,
        chunk_size: int | None = None,
    ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """The base backend's :meth:`~repro.api.PricingBackend.price_rows`.

        Sharding is timing-only and the numbers equal the base's, so the
        hot path skips it: one call, and any per-cell report the base
        raises covers every row.
        """
        return self.base.price_rows(grid, rows, chunk_size=chunk_size)

    _LEG_NAMES = ("premium", "protection", "accrual", "survival_at_maturity")

    def _price_tensor(self, request: PriceRequest) -> PriceResult:
        idx = request.row_indices
        assignment = shard_scenarios(idx.size, self.n_cards, self.scheduler)
        spreads = np.empty((idx.size, self.n_options), dtype=np.float64)
        # Shard results scatter straight into the stitched surfaces so
        # only one shard's legs are in flight on top of the output
        # arrays (holding every card's parts before stitching would
        # double peak leg memory on large grids).
        surfaces = (
            {
                name: np.empty((idx.size, self.n_options), dtype=np.float64)
                for name in self._LEG_NAMES
            }
            if request.want_legs
            else None
        )
        for chunk in assignment:
            if not chunk:
                continue
            pos = np.asarray(chunk, dtype=np.intp)
            sub = PriceRequest.tensor_rows(
                request.tensor,
                idx[pos],
                want_legs=request.want_legs,
                chunk_size=request.chunk_size,
            )
            part = price_via(self.base, sub)
            spreads[pos] = part.spreads_bps
            if surfaces is not None:
                for name in self._LEG_NAMES:
                    surfaces[name][pos] = getattr(part.legs, name)
        legs = LegSurfaces(**surfaces) if surfaces is not None else None
        return PriceResult(
            backend=self.name,
            spreads_bps=spreads,
            legs=legs,
            meta={
                "base": self.base.name,
                "n_cards": self.n_cards,
                "policy": self.scheduler.name,
                "assignment": [list(chunk) for chunk in assignment],
            },
        )

    def dispatch_cost_model(
        self, scenario, yield_curve, hazard_curve, *, n_engines: int = 5
    ):
        """Delegate to the wrapped base backend's cost model."""
        return self.base.dispatch_cost_model(
            scenario, yield_curve, hazard_curve, n_engines=n_engines
        )

    def close(self) -> None:
        self.base.close()
        super().close()


register_backend("cpu", CpuBackend)
register_backend("vectorized", VectorizedBackend)
register_backend("dataflow", DataflowBackend)
register_backend("cluster", ClusterBackend)
