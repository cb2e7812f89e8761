"""Live quote serving: micro-batched request coalescing onto the cluster.

The batch layers (``repro.cluster``, ``repro.risk``) price closed-world
jobs; this package turns them into an *online* service — the ROADMAP's
"serve heavy traffic" direction.  A simulated-time event loop accepts a
stream of pricing requests, coalesces them into micro-batches under a
size-or-linger policy, prices each batch with one batched kernel call,
and shards its market-state rows across cluster cards:

``request``
    :class:`~repro.serving.request.PricingRequest` /
    :class:`~repro.serving.request.PricingResponse` — quotes, revals and
    VaR refreshes with deadlines and priorities, plus shed records.
``coalescer``
    :class:`~repro.serving.coalescer.MicroBatchCoalescer` — the online
    size-or-linger micro-batcher (reusing the cluster
    :class:`~repro.cluster.batching.BatchQueue` as its policy), with
    causal linger timers, priority fill and shed-on-deadline.
``lane``
    :class:`~repro.serving.lane.Lane` — one replay's coalescer,
    in-flight window, bounded admission with the degradation ladder,
    and the health-aware dispatcher of ``faulted`` (retries, breakers,
    hedging; a fault-free run is the empty fault plan).
``engine``
    :class:`~repro.serving.engine.QuoteServer` — drives one lane per
    replay: host-link dispatch serialisation and contention, one negotiated
    :class:`~repro.api.PricingSession` call per micro-batch via
    :meth:`~repro.risk.engine.ScenarioRiskEngine.quote_rows` (any
    ``supports_streaming`` backend from the :mod:`repro.api` registry);
    batched answers are bit-identical to pricing each request alone.
``metrics``
    :class:`~repro.serving.metrics.ServingResult` — p50/p95/p99 latency,
    goodput, shed rate, micro-batch shape and per-card loads.
``workload``
    Market tapes and seeded request streams over the arrival processes
    of :mod:`repro.workloads.traffic`.
"""

from repro.serving.coalescer import MicroBatch, MicroBatchCoalescer
from repro.serving.engine import VAR_CONFIDENCE, DispatchCostModel, QuoteServer
from repro.serving.metrics import (
    CardLoad,
    KindStats,
    LatencyStats,
    ServingResult,
    per_kind_stats,
)
from repro.serving.request import (
    REQUEST_KINDS,
    SHED_REASONS,
    PricingRequest,
    PricingResponse,
    ShedRecord,
)
from repro.serving.workload import (
    make_market_tape,
    make_request_stream,
    make_risk_refresh_stream,
)

__all__ = [
    "REQUEST_KINDS",
    "SHED_REASONS",
    "PricingRequest",
    "PricingResponse",
    "ShedRecord",
    "MicroBatch",
    "MicroBatchCoalescer",
    "DispatchCostModel",
    "QuoteServer",
    "VAR_CONFIDENCE",
    "LatencyStats",
    "CardLoad",
    "KindStats",
    "ServingResult",
    "per_kind_stats",
    "make_market_tape",
    "make_request_stream",
    "make_risk_refresh_stream",
]
