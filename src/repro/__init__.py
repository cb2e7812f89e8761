"""repro — reproduction of *Optimisation of an FPGA Credit Default Swap
engine by embracing dataflow techniques* (Brown, Klaisoongnoen, Thomson
Brown; IEEE CLUSTER 2021; arXiv:2108.03982).

The package contains the full system described in the paper, rebuilt in
Python around a cycle-level HLS dataflow simulator:

* :mod:`repro.core` — CDS pricing mathematics (curves, schedules, reference
  and vectorised pricers, hazard bootstrap).
* :mod:`repro.dataflow` — the discrete-event dataflow simulator (streams,
  processes, topology graphs).
* :mod:`repro.hls` — HLS construct models (operator latencies, pragmas, the
  Listing-1 accumulator, interpolation units, resources, reports).
* :mod:`repro.fpga` — Alveo U280 platform models (device, HBM, PCIe, power,
  floorplanning).
* :mod:`repro.cpu` — the CPU baseline (runnable engine + calibrated Xeon
  model).
* :mod:`repro.engines` — the five engine variants of Tables I and II.
* :mod:`repro.cluster` — multi-card cluster scaling: sharding schedulers,
  host interconnect contention, request batching ("Table II extended").
* :mod:`repro.risk` — portfolio scenario risk: shocked market states
  (parallel/bucketed/historical/Monte-Carlo), cluster-sharded
  bump-and-reprice, VaR/ES and sensitivity ladders.
* :mod:`repro.serving` — live quote serving: micro-batched request
  coalescing, deadline/priority scheduling, admission control and
  latency/goodput accounting on top of the cluster.
* :mod:`repro.api` — the **unified pricing API**: one
  :class:`~repro.api.PricingBackend` protocol, a string-keyed backend
  registry (``cpu``, ``vectorized``, ``dataflow``) and the
  :class:`~repro.api.PricingSession` facade every consumer layer (risk,
  serving, analysis, CLI) prices through.
* :mod:`repro.workloads` — workload generators and the paper scenario.
* :mod:`repro.sim` — the unified system-level event core (clock, event
  queue, busy-window resources) cluster, risk and serving replay on.
* :mod:`repro.telemetry` — simulated-time spans, a metrics registry and
  trace exporters over everything on the shared clock.
* :mod:`repro.faults` — deterministic fault injection: seeded failure
  plans, cluster-health projection, retry/hedging/breaker policies and
  resilience reporting.
* :mod:`repro.gateway` — the multi-tenant gateway in front of N quote
  servers: consistent-hash routing, per-tenant admission quotas and a
  market-state-keyed quote cache with single-flight dedup.
* :mod:`repro.analysis` — metrics, table/figure renderers, sweeps,
  paper comparison.

Quickstart
----------
Open a pricing session on any registered backend — the one public entry
point into the pricing core:

>>> from repro import PaperScenario, open_session
>>> sc = PaperScenario(n_options=16)
>>> with open_session("vectorized", sc.options()) as session:
...     result = session.price_state(sc.yield_curve(), sc.hazard_curve())
>>> result.spreads_bps.shape
(1, 16)

The five simulated FPGA engine variants remain available directly for the
paper tables (``open_session("dataflow", ...)`` wraps them behind the
same protocol, with the simulated timing in ``result.meta``):

>>> from repro import VectorizedDataflowEngine
>>> VectorizedDataflowEngine(sc).run().spreads_bps.shape
(16,)
"""

from repro.core import (
    CDSOption,
    CDSResult,
    Curve,
    HazardCurve,
    YieldCurve,
    price_cds,
)
from repro.api import (
    BackendCapabilities,
    PriceResult,
    PricingBackend,
    PricingSession,
    available_backends,
    open_session,
    register_backend,
)
from repro.core.precision import run_precision_study
from repro.core.risk import RiskEngine
from repro.engines import (
    InterOptionDataflowEngine,
    MultiEngineSystem,
    OptimisedDataflowEngine,
    VectorizedDataflowEngine,
    XilinxBaselineEngine,
)
from repro.cluster import CDSCluster
from repro.risk import Portfolio, Position, ScenarioRiskEngine, make_book
from repro.serving import QuoteServer
from repro.gateway import Gateway
from repro.workloads import PaperScenario
from repro.errors import ReproError

__version__ = "1.26.0"

__all__ = [
    "CDSOption",
    "CDSResult",
    "Curve",
    "YieldCurve",
    "HazardCurve",
    "price_cds",
    "XilinxBaselineEngine",
    "OptimisedDataflowEngine",
    "InterOptionDataflowEngine",
    "VectorizedDataflowEngine",
    "MultiEngineSystem",
    "CDSCluster",
    "PaperScenario",
    "ReproError",
    "RiskEngine",
    "ScenarioRiskEngine",
    "Portfolio",
    "Position",
    "make_book",
    "QuoteServer",
    "Gateway",
    "run_precision_study",
    "open_session",
    "PricingSession",
    "PricingBackend",
    "PriceResult",
    "BackendCapabilities",
    "available_backends",
    "register_backend",
    "__version__",
]
