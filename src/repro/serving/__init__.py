"""Live quote serving: micro-batched request coalescing onto the cluster.

The batch layers (``repro.cluster``, ``repro.risk``) price closed-world
jobs; this package turns them into an *online* service — the ROADMAP's
"serve heavy traffic" direction.  A simulated-time event loop accepts a
stream of pricing requests, coalesces them into micro-batches under a
size-or-linger policy, answers each batch from the server's table of its
frozen market tape (each row priced once, in one batched kernel call per
batch that reads new rows), and shards the batch's market-state rows
across cluster cards for timing:

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
    replay: host-link dispatch serialisation and contention, and a
    table of the tape filled lazily, the rows a batch reads first
    priced whole-book in one direct kernel call via
    :meth:`~repro.risk.engine.ScenarioRiskEngine.quote_rows` and the
    session's :meth:`~repro.api.PricingBackend.price_rows` (any
    ``supports_streaming`` backend from the :mod:`repro.api` registry);
    answers are bit-identical to pricing each request alone, and an
    invalid cell fails only a batch that reads it.
``metrics``
    :class:`~repro.serving.metrics.ServingResult` — p50/p95/p99 latency,
    goodput, shed rate, micro-batch shape and per-card loads.
``workload``
    Market tapes and seeded request streams over the arrival processes
    of :mod:`repro.workloads.traffic`.
"""

from repro.serving.coalescer import MicroBatch, MicroBatchCoalescer
from repro.serving.engine import VAR_CONFIDENCE, QuoteServer
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
