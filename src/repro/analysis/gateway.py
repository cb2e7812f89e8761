"""The gateway report: one command from tenant mix to cache economics.

The multi-tenant counterpart of :mod:`repro.analysis.serving`: one call
builds the book, the market tape and a tenant-labelled request stream,
replays it through a :class:`~repro.gateway.engine.Gateway` fronting N
quote servers, and returns a structured :class:`GatewayReport` that
renders as the ``repro-cds gateway`` table or serialises to a
JSON-friendly dict.

With one tenant the stream degrades to the exact single-server serving
workload (:func:`~repro.serving.workload.make_request_stream`, same seed
offsets), so ``--tenants 1 --servers 1 --cache off`` reproduces the
``repro-cds serve`` numbers — the identity pin the golden suite holds.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from repro.cluster.batching import BatchQueue
from repro.core.validation import (
    check_count,
    check_index,
    check_positive_finite,
    check_range,
)
from repro.gateway.engine import Gateway
from repro.gateway.metrics import GatewayResult
from repro.gateway.tenancy import DEFAULT_TENANTS, PASSTHROUGH_TENANT
from repro.gateway.workload import make_tenant_stream, make_tick_stream
from repro.serving.workload import make_request_stream
from repro.workloads.scenarios import PaperScenario

from repro.analysis.serving import STREAM_SEED_OFFSET, ReplayReport, replay_inputs

__all__ = [
    "GatewayReport",
    "generate_gateway_report",
    "render_gateway_report",
    "gateway_report_dict",
]


@dataclass(frozen=True, kw_only=True)
class GatewayReport(ReplayReport):
    """Everything the ``repro-cds gateway`` subcommand prints.

    Attributes
    ----------
    n_servers:
        Server replicas, each with the
        :class:`~repro.analysis.serving.ReplayReport` cluster shape.
    n_tenants / cache / n_ticks / tick_rate_hz:
        Tenant-mix size, whether the quote cache is on, and the market
        tick stream driving invalidation.
    result:
        The aggregate :class:`~repro.gateway.metrics.GatewayResult`.
    """

    n_servers: int
    n_tenants: int
    cache: bool
    n_ticks: int
    tick_rate_hz: float
    result: GatewayResult


def generate_gateway_report(
    scenario: PaperScenario | None = None,
    *,
    n_requests: int = 4_000,
    rate_hz: float = 200_000.0,
    n_servers: int = 2,
    n_cards: int = 2,
    n_engines: int = 5,
    policy: str = "least-loaded",
    workload: str = "heterogeneous",
    traffic: str = "poisson",
    n_tenants: int = 3,
    cache: bool = True,
    n_ticks: int = 200,
    tick_rate_hz: float = 2_000.0,
    max_batch: int = 128,
    max_delay_s: float = 1e-3,
    queue_depth: int = 4096,
    n_states: int = 64,
    seed: int = 17,
    chunk_size: int | None = None,
    backend: str = "vectorized",
    telemetry=None,
    faults=None,
    fault_server: int = 0,
    hedge=None,
    retry=None,
    monitor=None,
) -> GatewayReport:
    """Run the full gateway pipeline and return the report.

    Deterministic in ``seed``: the book, the tape, the tenant-labelled
    stream, the tick stream and therefore every simulated number
    reproduce exactly (only the measured ``host_seconds`` varies).

    Parameters
    ----------
    scenario:
        Experimental configuration (default: the paper scenario); its
        ``n_options`` is the book size.
    n_requests / rate_hz / traffic:
        Offered load across all tenants.
    n_servers:
        Quote-server replicas behind the consistent-hash ring.
    n_cards / n_engines / policy:
        Each replica's cluster shape and sharding policy.
    workload:
        Contract-mix registry key for the shared book.
    n_tenants:
        How many of the default tenant tiers to admit (1 =
        single-tenant passthrough, which also switches the stream to
        the exact single-server serving workload).
    cache:
        Whether the market-state-keyed quote cache is on.
    n_ticks / tick_rate_hz:
        Market-tick stream length and rate (cache invalidation
        pressure; ignored with the cache off).
    max_batch / max_delay_s / queue_depth:
        Per-server coalescing and admission bounds.
    n_states:
        Market-tape length.
    seed:
        Master seed for book, tape, streams and ticks.
    chunk_size / backend:
        Kernel chunking and the base pricing backend per server.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle shared by
        the gateway and every server.
    faults / fault_server / hedge / retry:
        Optional :class:`~repro.faults.FaultPlan` applied to one lane,
        plus its hedging/retry policies.
    monitor:
        Optional :class:`~repro.monitor.Monitor` scoring the run.
    """
    check_count(n_tenants, "n_tenants")
    check_range(n_tenants, "n_tenants", f"[1, {len(DEFAULT_TENANTS)}]")
    check_index(n_ticks, "n_ticks")
    check_positive_finite(tick_rate_hz, "tick_rate_hz")
    sc, book, tape = replay_inputs(scenario, workload, n_states, seed)
    if n_tenants == 1:
        tenants = (PASSTHROUGH_TENANT,)
        requests = make_request_stream(
            n_requests,
            rate_hz=rate_hz,
            n_states=n_states,
            n_positions=len(book),
            traffic=traffic,
            seed=seed + STREAM_SEED_OFFSET,
        )
    else:
        tenants = DEFAULT_TENANTS[:n_tenants]
        requests = make_tenant_stream(
            n_requests,
            rate_hz=rate_hz,
            n_states=n_states,
            n_positions=len(book),
            tenants=tenants,
            traffic=traffic,
            seed=seed + STREAM_SEED_OFFSET,
        )
    ticks = (
        make_tick_stream(
            n_ticks, rate_hz=tick_rate_hz, n_states=n_states, seed=seed
        )
        if cache and n_ticks
        else None
    )
    gateway = Gateway(
        book,
        tape,
        scenario=sc,
        n_servers=n_servers,
        n_cards=n_cards,
        n_engines=n_engines,
        scheduler=policy,
        queue=BatchQueue(max_batch=max_batch, linger_s=max_delay_s),
        queue_depth=queue_depth,
        chunk_size=chunk_size,
        backend=backend,
        tenants=tenants,
        cache=cache,
        telemetry=telemetry,
    )
    t0 = time.perf_counter()
    result = gateway.serve(
        requests, ticks=ticks, faults=faults, fault_server=fault_server,
        hedge=hedge, retry=retry, monitor=monitor,
    )
    host_seconds = time.perf_counter() - t0
    return GatewayReport(
        traffic=traffic,
        rate_hz=rate_hz,
        n_requests=n_requests,
        seed=seed,
        n_servers=n_servers,
        n_cards=n_cards,
        n_engines=n_engines,
        policy=policy,
        n_tenants=n_tenants,
        cache=cache,
        n_ticks=n_ticks if cache else 0,
        tick_rate_hz=tick_rate_hz,
        max_batch=max_batch,
        max_delay_s=max_delay_s,
        queue_depth=queue_depth,
        n_states=n_states,
        n_positions=len(book),
        backend=backend,
        result=result,
        host_seconds=host_seconds,
        fault_spec=faults.spec() if faults is not None else "",
    )


def render_gateway_report(report: GatewayReport) -> str:
    """Text rendering of the gateway report (byte-deterministic)."""
    r = report.result
    cache_label = "on" if report.cache else "off"
    lines = [
        f"Gateway report — {report.n_requests} requests at "
        f"{report.rate_hz:,.0f} req/s ({report.traffic}) over "
        f"{report.n_tenants} tenant(s), {report.n_servers} server(s) x "
        f"{report.n_cards} card(s), seed {report.seed}",
        f"  book {report.n_positions} position(s), market tape "
        f"{report.n_states} state(s), policy {report.policy}, "
        f"cache {cache_label} ({report.n_ticks} tick(s)), "
        f"backend {report.backend}",
        f"  {r.summary()}",
        f"  sheds: {r.n_shed_quota} quota / {r.n_shed_queue} queue / "
        f"{r.n_shed_deadline} deadline; cache {r.n_cache_hits} hit(s) + "
        f"{r.n_cache_joins} join(s), {r.n_cache_invalidations} "
        f"invalidation(s), dedup {r.cache_dedup_rate:.1%}",
    ]
    if report.fault_spec:
        lines.append(f"  faults: {report.fault_spec} -> {r.n_failed} failed")
    lines.append("  tenants:")
    for t in r.tenants:
        lines.append(
            f"    {t.tenant:>8} ({t.tier}): {t.n_completed}/{t.n_offered} "
            f"done, {t.n_shed} shed ({t.n_shed_quota} quota), "
            f"goodput {t.goodput_rps:,.0f} req/s, "
            f"p99 {t.latency.p99_s * 1e3:.3f} ms, "
            f"{t.n_cache_hits} cache-served"
        )
    lines.append("  servers:")
    for i, s in enumerate(r.servers):
        lines.append(
            f"    server {i}: {s.n_completed}/{s.n_offered} done, "
            f"goodput {s.goodput_rps:,.0f} req/s, "
            f"p99 {s.latency.p99_s * 1e3:.3f} ms, "
            f"{s.n_dispatches} batch(es)"
        )
    return "\n".join(lines)


def gateway_report_dict(report: GatewayReport) -> dict:
    """JSON-friendly dict of the report (raw responses/sheds excluded)."""
    r = report.result
    return {
        "traffic": report.traffic,
        "rate_hz": report.rate_hz,
        "n_requests": report.n_requests,
        "seed": report.seed,
        "n_servers": report.n_servers,
        "n_cards": report.n_cards,
        "n_engines": report.n_engines,
        "policy": report.policy,
        "n_tenants": report.n_tenants,
        "cache": "on" if report.cache else "off",
        "n_ticks": report.n_ticks,
        "tick_rate_hz": report.tick_rate_hz,
        "max_batch": report.max_batch,
        "max_delay_s": report.max_delay_s,
        "queue_depth": report.queue_depth,
        "n_states": report.n_states,
        "n_positions": report.n_positions,
        "backend": report.backend,
        "fault_spec": report.fault_spec,
        "n_offered": r.n_offered,
        "n_completed": r.n_completed,
        "n_failed": r.n_failed,
        "n_shed": r.n_shed,
        "n_shed_quota": r.n_shed_quota,
        "n_shed_queue": r.n_shed_queue,
        "n_shed_deadline": r.n_shed_deadline,
        "n_cache_hits": r.n_cache_hits,
        "n_cache_joins": r.n_cache_joins,
        "n_cache_invalidations": r.n_cache_invalidations,
        "cache_hit_rate": r.cache_hit_rate,
        "cache_dedup_rate": r.cache_dedup_rate,
        "n_deadline_met": r.n_deadline_met,
        "n_late": r.n_late,
        "span_seconds": r.span_seconds,
        "throughput_rps": r.throughput_rps,
        "goodput_rps": r.goodput_rps,
        "shed_rate": r.shed_rate,
        "deadline_hit_rate": r.deadline_hit_rate,
        "latency": asdict(r.latency),
        "tenants": [asdict(t) for t in r.tenants],
        "servers": [
            {
                "server": i,
                "n_offered": s.n_offered,
                "n_completed": s.n_completed,
                "n_shed_queue": s.n_shed_queue,
                "n_shed_deadline": s.n_shed_deadline,
                "goodput_rps": s.goodput_rps,
                "deadline_hit_rate": s.deadline_hit_rate,
                "latency": asdict(s.latency),
                "n_dispatches": s.n_dispatches,
                "mean_batch_requests": s.mean_batch_requests,
                "mean_batch_rows": s.mean_batch_rows,
            }
            for i, s in enumerate(r.servers)
        ],
        "host_seconds": report.host_seconds,
        "requests_per_sec_host": report.requests_per_sec_host,
    }
