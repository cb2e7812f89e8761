"""Unified pricing-backend API: one protocol, one registry, one session.

Before this package, each consumer layer reached into its own pricing
entry point — engines via :meth:`~repro.engines.base.CDSEngineBase.run`,
risk via the packed kernels, serving via the risk engine's internals.
:mod:`repro.api` replaces that fan-out with one surface:

* :class:`PricingBackend` — the backend protocol: bind a book, price
  one market state (``price_state``) or tensor rows (``price_rows``,
  by default one state at a time) into :class:`PriceResult` surfaces
  and plain arrays, advertise :class:`BackendCapabilities`.
* the **registry** — ``cpu``, ``vectorized`` and ``dataflow`` ship
  built in; :func:`register_backend` adds new execution targets (a real
  FPGA driver, a GPU kernel, a remote worker) without touching any
  consumer layer.
* :class:`PricingSession` / :func:`open_session` — the facade every
  consumer goes through: it validates the input, refuses what the
  capability flags exclude and checks each result's shape.

See ``docs/api.md`` for the full protocol description and the migration
table from the old entry points.
"""

from repro.api.cost import DispatchCostModel
from repro.api.protocol import (
    BackendCapabilities,
    LegSurfaces,
    MarketGrid,
    PriceResult,
    PricingBackend,
)
from repro.api.registry import (
    available_backends,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.api.backends import (
    CpuBackend,
    DataflowBackend,
    VectorizedBackend,
)
from repro.api.session import PricingSession, open_session

__all__ = [
    "BackendCapabilities",
    "MarketGrid",
    "PriceResult",
    "LegSurfaces",
    "PricingBackend",
    "DispatchCostModel",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "create_backend",
    "CpuBackend",
    "VectorizedBackend",
    "DataflowBackend",
    "PricingSession",
    "open_session",
]
