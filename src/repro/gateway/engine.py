"""The multi-tenant gateway: route → admit → cache-lookup → dispatch.

:class:`Gateway` fronts N :class:`~repro.serving.engine.QuoteServer`
replicas on **one** shared :class:`~repro.sim.Simulation` clock — the
"millions of users" front door.  Each arriving request passes four
stages inside its arrival callback:

1. **admit** — the tenant's token bucket is charged; a dry bucket sheds
   the request with the typed :attr:`~repro.serving.request.ShedReason.
   QUOTA` reason before it can touch any server queue;
2. **cache** — quotes consult the market-state-keyed
   :class:`~repro.gateway.cache.QuoteCache`: a ready entry answers at
   cache-hit latency, an in-flight entry absorbs the request as a
   joiner (single-flight dedup), a miss makes it the key's leader;
3. **route** — the consistent-hash ring picks the owning server, so
   identical keys always share a server (and a micro-batch row);
4. **dispatch** — the owning server's :class:`~repro.serving.lane.Lane`
   admits the request (bounded queue, degradation ladder) and coalesces
   it: the same lane :meth:`~repro.serving.engine.QuoteServer.serve`
   drives, with every lane's timing rig on the gateway's clock.

The gateway itself keeps only tenant admission, the cache and routing.
With one server, one unlimited tenant and the cache off it adds no
behaviour: its lane result is pinned **equal** to ``QuoteServer.serve``
on the same trace, and cached/deduped values are pinned bit-identical
to cache-off replies — both by the property suite.

A fault plan applies to one lane (retries, breakers, the degradation
ladder) while the others carry the empty plan — the "crash-1of4 behind
the gateway" chaos cell.
"""

from __future__ import annotations

import math
from dataclasses import replace
from operator import attrgetter

import numpy as np

from repro.api import PricingBackend
from repro.cluster.batching import BatchQueue
from repro.cluster.interconnect import HostLinkModel
from repro.core.validation import check_count, is_index
from repro.errors import ValidationError
from repro.faults.plan import FaultPlan
from repro.faults.retry import HedgePolicy, RetryPolicy
from repro.risk.engine import Portfolio
from repro.risk.tensor import ScenarioTensor
from repro.serving.engine import QuoteServer
from repro.serving.metrics import LatencyStats
from repro.serving.request import (
    FailRecord,
    PricingRequest,
    PricingResponse,
    ShedReason,
    ShedRecord,
)
from repro.sim import Simulation
from repro.telemetry import (
    NULL_TELEMETRY,
    CounterFamily,
    MetricsRegistry,
    Telemetry,
)
from repro.workloads.scenarios import PaperScenario

from repro.gateway.cache import DEFAULT_HIT_LATENCY_S, QuoteCache, cache_key
from repro.gateway.metrics import GatewayResult, per_tenant_stats
from repro.gateway.routing import DEFAULT_REPLICAS, HashRing
from repro.gateway.tenancy import DEFAULT_TENANTS, TenantBook, TenantProfile

__all__ = ["Gateway"]


class Gateway:
    """Multi-tenant front door over N quote-server replicas.

    Parameters
    ----------
    book / tape:
        The shared book and market tape every replica serves.
    scenario / n_cards / n_engines / scheduler / link / queue /
    queue_depth / chunk_size / backend:
        Replica configuration, forwarded verbatim to the one
        :class:`~repro.serving.engine.QuoteServer` every replica runs
        on: the book is bound and the cost model calibrated once.
    n_servers:
        Replica count behind the ring.  :attr:`servers` holds the server
        once per replica; each replay gives every replica its own lane.
    tenants:
        The tenant set (default: the three-tier
        :data:`~repro.gateway.tenancy.DEFAULT_TENANTS` mix).
    cache:
        Whether the quote cache (and single-flight dedup) is on.
    cache_hit_latency_s:
        Simulated latency of a cache hit.
    ring_replicas:
        Virtual points per server on the consistent-hash ring.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle shared by
        the gateway and every replica; ``gateway_*`` counters and spans
        land next to the servers' ``serving_*`` ones.
    """

    def __init__(
        self,
        book: Portfolio,
        tape: ScenarioTensor,
        *,
        scenario: PaperScenario | None = None,
        n_servers: int = 2,
        n_cards: int = 4,
        n_engines: int = 5,
        scheduler: str = "least-loaded",
        link: HostLinkModel | None = None,
        queue: BatchQueue | None = None,
        queue_depth: int = 4096,
        chunk_size: int | None = None,
        backend: str | PricingBackend = "vectorized",
        tenants: tuple[TenantProfile, ...] = DEFAULT_TENANTS,
        cache: bool = True,
        cache_hit_latency_s: float = DEFAULT_HIT_LATENCY_S,
        ring_replicas: int = DEFAULT_REPLICAS,
        telemetry: Telemetry | None = None,
    ) -> None:
        check_count(n_servers, "n_servers")
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.tenants = tuple(tenants)
        TenantBook(self.tenants)  # validate eagerly
        self.cache_enabled = bool(cache)
        self.cache_hit_latency_s = cache_hit_latency_s
        # Replicas are identical builds, so one server stands behind
        # every ring slot: each replay runs one lane of it per replica.
        server = QuoteServer(
            book,
            tape,
            scenario=scenario,
            n_cards=n_cards,
            n_engines=n_engines,
            scheduler=scheduler,
            link=link,
            queue=queue,
            queue_depth=queue_depth,
            chunk_size=chunk_size,
            backend=backend,
            telemetry=telemetry,
        )
        self.servers = (server,) * n_servers
        self.ring = HashRing(range(n_servers), replicas=ring_replicas)

    @property
    def n_servers(self) -> int:
        """Replicas behind the ring (drained ones included)."""
        return len(self.servers)

    @property
    def tape(self) -> ScenarioTensor:
        """The shared market tape."""
        return self.servers[0].tape

    def drain(self, server_index: int) -> None:
        """Take one replica out of rotation; only its keys move."""
        self.ring.drain(server_index)

    # ------------------------------------------------------------------
    def serve(
        self,
        requests,
        *,
        ticks=None,
        faults: FaultPlan | None = None,
        fault_server: int = 0,
        hedge: HedgePolicy | None = None,
        retry: RetryPolicy | None = None,
        monitor=None,
    ) -> GatewayResult:
        """Replay a multi-tenant trace through the gateway tier.

        Parameters
        ----------
        requests:
            The offered load; sorted internally by arrival time.
            Requests without a tenant label bill to the first profile.
        ticks:
            Optional ``(time_s, row)`` market ticks; each drops every
            cached quote keyed on its row.  Each time must be finite and
            >= 0 and each row must index the tape, with the cache on or
            off; with it off, ticks drop nothing.
        faults:
            Optional :class:`~repro.faults.FaultPlan` applied to the
            ``fault_server`` lane; the other lanes carry the empty plan.
        fault_server:
            Which lane the plan hits.
        hedge / retry:
            Dispatch policies of the ``fault_server`` lane.
        monitor:
            Optional :class:`~repro.monitor.Monitor`; attached to the
            shared clock with a cluster-wide ``cards_up`` probe and
            finalized against the aggregate result.

        Returns
        -------
        GatewayResult
            Aggregate, per-tenant and per-server accounting plus the
            cache economics.
        """
        if not requests:
            raise ValidationError("request trace must be non-empty")
        trace = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
        book = TenantBook(self.tenants)
        if not set(map(attrgetter("tenant"), trace)) <= {None, *book.names}:
            # An unknown tenant: the first bad request in trace order
            # raises, whatever it got wrong.
            for req in trace:
                self.servers[0]._check_request(req)
                book.profile(req.tenant)
        self.servers[0]._check_trace(trace)
        if faults is not None and not 0 <= fault_server < self.n_servers:
            raise ValidationError(
                f"fault_server must index a server, got {fault_server}"
            )
        n_states = self.tape.n_scenarios
        for time, row in ticks or ():
            if not 0 <= time < math.inf:  # NaN fails too
                raise ValidationError(
                    f"tick time must be finite and >= 0, got {time!r}"
                )
            if not is_index(row) or not 0 <= row < n_states:
                raise ValidationError(
                    f"tick row must index the {n_states}-state tape, "
                    f"got {row!r}"
                )

        sim = Simulation()
        lanes = [
            server.lane(faults, sim=sim, hedge=hedge, retry=retry)
            if i == fault_server
            else server.lane(sim=sim)
            for i, server in enumerate(self.servers)
        ]
        cache = (
            QuoteCache(hit_latency_s=self.cache_hit_latency_s)
            if self.cache_enabled
            else None
        )
        recorder = self.telemetry.recorder

        # Gateway-level tallies and outcome streams.
        gw = MetricsRegistry()
        hits_total = gw.counter(
            "gateway_cache_hits_total", "quotes answered from the cache"
        )
        joins_total = gw.counter(
            "gateway_cache_joins_total", "quotes coalesced onto a leader"
        )
        misses_total = gw.counter(
            "gateway_cache_misses_total", "cacheable quotes that led a flight"
        )
        invalidations_total = gw.counter(
            "gateway_cache_invalidations_total", "cache entries dropped by ticks"
        )
        requests_total = CounterFamily(
            gw, "gateway_requests_total", "requests offered to the gateway",
            label="tenant",
        )
        shed_quota_total = CounterFamily(
            gw, "gateway_shed_quota_total", "requests rejected by tenant quotas",
            label="tenant",
        )
        routed_total = CounterFamily(
            gw, "gateway_routed_total", "requests routed to servers",
            label="server",
        )
        cache_responses: list[PricingResponse] = []
        quota_sheds: list[ShedRecord] = []
        waiter_sheds: list[ShedRecord] = []
        waiter_fails: list[FailRecord] = []
        # Scan cursors per lane for the cache-resolution sweep:
        # responses, coalescer sheds and fail records already seen.
        seen = [(0, 0, 0)] * len(lanes)

        if monitor is not None:
            monitor.attach(
                sim, gw,
                n_cards=sum(lane.rig.n_cards for lane in lanes),
                probe=lambda t: float(sum(
                    len(lane.health.healthy_cards(t)) for lane in lanes
                )),
            )

        def emit_cache_response(
            req: PricingRequest, entry, completion: float, formed: float
        ) -> None:
            cache_responses.append(
                PricingResponse(
                    request_id=req.request_id,
                    kind=req.kind,
                    value=entry.value,
                    arrival_s=req.arrival_s,
                    formed_s=formed,
                    completion_s=completion,
                    latency_s=completion - req.arrival_s,
                    met_deadline=completion <= req.deadline_s,
                    batch_id=entry.batch_id,
                    cards=entry.cards,
                    tenant=req.tenant,
                )
            )

        def resolve_outcomes() -> None:
            """Sweep new lane outcomes into cache entries and waiters."""
            for k, lane in enumerate(lanes):
                responses = lane.dispatcher.responses
                fails = lane.dispatcher.fails
                counts = (len(responses), lane.coalescer.n_sheds, len(fails))
                if counts == seen[k]:
                    continue  # nothing new on this lane
                n_responses, n_sheds, n_fails = seen[k]
                for resp in responses[n_responses:]:
                    entry = cache.fulfil(
                        resp.request_id,
                        value=resp.value,
                        ready_s=resp.completion_s,
                        formed_s=resp.formed_s,
                        batch_id=resp.batch_id,
                        cards=resp.cards,
                    )
                    if entry is not None:
                        for waiter in entry.waiters:
                            emit_cache_response(
                                waiter,
                                entry,
                                max(waiter.arrival_s, entry.ready_s),
                                max(waiter.arrival_s, entry.formed_s),
                            )
                        entry.waiters.clear()
                for rec in lane.coalescer.sheds_since(n_sheds):
                    abandon(rec, waiter_sheds)
                for rec in fails[n_fails:]:
                    abandon(rec, waiter_fails)
                seen[k] = counts

        def abandon(rec, waiter_records: list) -> None:
            """A leader that was shed or failed takes its joiners along.

            Single-flight ties a joiner's fate to its leader: nobody
            repriced the key for them.
            """
            entry = cache.abandon(rec.request.request_id)
            if entry is not None:
                waiter_records.extend(
                    replace(rec, request=waiter) for waiter in entry.waiters
                )
                entry.waiters.clear()

        def on_arrival(req: PricingRequest) -> None:
            now = req.arrival_s
            # Every lane lives on the shared clock: linger timers fire
            # and in-flight windows drain across the whole tier, not
            # just the lane this arrival routes to.
            for lane in lanes:
                lane.tick(now)
            if cache is not None:
                resolve_outcomes()
            profile = book.profile(req.tenant)
            requests_total[profile.name].inc()
            if not book.admit(req.tenant, now):
                quota_sheds.append(ShedRecord(req, now, ShedReason.QUOTA))
                shed_quota_total[profile.name].inc()
                if recorder.enabled:
                    recorder.record(
                        "shed", now, now, track="gateway", category="request",
                        trace_id=req.request_id, kind=req.kind,
                        args={"reason": "quota", "tenant": profile.name},
                    )
                return
            key = cache_key(req) if cache is not None else None
            if key is not None:
                cache.stats.lookups += 1
                entry = cache.get(key)
                if entry is not None and entry.ready and now >= entry.ready_s:
                    cache.stats.hits += 1
                    hits_total.inc()
                    emit_cache_response(
                        req, entry, now + cache.hit_latency_s, now
                    )
                    if recorder.enabled:
                        recorder.record(
                            "cache_hit", now, now + cache.hit_latency_s,
                            track="gateway", category="request",
                            trace_id=req.request_id, kind=req.kind,
                            args={"row": key[0], "option": key[1]},
                        )
                    return
                if entry is not None:
                    # In flight (or completing in the future): join the
                    # leader's single flight instead of paying a row.
                    cache.stats.joins += 1
                    joins_total.inc()
                    if entry.ready:
                        emit_cache_response(
                            req, entry, entry.ready_s,
                            max(req.arrival_s, entry.formed_s),
                        )
                    else:
                        entry.waiters.append(req)
                    if recorder.enabled:
                        recorder.record(
                            "cache_join", now, now, track="gateway",
                            category="request", trace_id=req.request_id,
                            kind=req.kind,
                            args={"row": key[0], "option": key[1]},
                        )
                    return
                cache.stats.misses += 1
                misses_total.inc()
            index = self.ring.route_request(req)
            routed_total[index].inc()
            boosted = (
                req
                if profile.priority_boost == 0
                else replace(req, priority=req.priority + profile.priority_boost)
            )
            if lanes[index].offer(boosted, now) and key is not None:
                cache.begin(key, boosted)

        def on_tick(payload) -> None:
            _, row = payload
            dropped = cache.invalidate_row(row)
            if dropped:
                invalidations_total.inc(dropped)

        sim.feed(
            [req.arrival_s for req in trace], trace, on_arrival, label="arrival"
        )
        if cache is not None and ticks:
            for tick in ticks:
                sim.schedule_at(tick[0], on_tick, payload=tick, label="tick")
        sim.run()
        for lane in lanes:
            lane.flush()
        sim.run()  # tail batches may have scheduled retries
        if cache is not None:
            resolve_outcomes()

        return self._summarise(
            trace, lanes, book, cache,
            cache_responses, quota_sheds, waiter_sheds, waiter_fails,
            gw, monitor=monitor, faults=faults,
        )

    # ------------------------------------------------------------------
    def _summarise(
        self,
        trace,
        lanes,
        book: TenantBook,
        cache: QuoteCache | None,
        cache_responses,
        quota_sheds,
        waiter_sheds,
        waiter_fails,
        gw: MetricsRegistry,
        *,
        monitor=None,
        faults=None,
    ) -> GatewayResult:
        server_results = []
        all_responses = list(cache_responses)
        all_sheds = quota_sheds + waiter_sheds
        all_fails = list(waiter_fails)
        for lane in lanes:
            result = lane.result()
            server_results.append(result)
            all_responses.extend(result.responses)
            all_sheds.extend(result.sheds)
            all_fails.extend(result.fails)

        all_responses.sort(key=lambda r: (r.completion_s, r.request_id))
        all_sheds.sort(key=lambda s: (s.time_s, s.request.request_id))
        all_fails.sort(key=lambda f: (f.time_s, f.request.request_id))
        n_offered = len(trace)
        n_completed = len(all_responses)
        met = sum(1 for r in all_responses if r.met_deadline)
        if all_responses:
            span = (
                max(r.completion_s for r in all_responses)
                - trace[0].arrival_s
            )
        else:
            span = 0.0
        stats = cache.stats if cache is not None else None
        cache_ids = frozenset(r.request_id for r in cache_responses)
        result = GatewayResult(
            n_offered=n_offered,
            n_completed=n_completed,
            n_shed=len(all_sheds),
            n_shed_quota=len(quota_sheds),
            n_shed_queue=sum(
                1 for s in all_sheds if s.reason is ShedReason.BACKPRESSURE
            ),
            n_shed_deadline=sum(
                1 for s in all_sheds if s.reason is ShedReason.DEADLINE
            ),
            n_cache_hits=stats.hits if stats else 0,
            n_cache_joins=stats.joins if stats else 0,
            n_cache_invalidations=stats.invalidations if stats else 0,
            cache_hit_rate=stats.hit_rate if stats else 0.0,
            cache_dedup_rate=stats.dedup_rate if stats else 0.0,
            n_deadline_met=met,
            n_late=n_completed - met,
            span_seconds=span,
            throughput_rps=n_completed / span if span > 0 else 0.0,
            goodput_rps=met / span if span > 0 else 0.0,
            shed_rate=len(all_sheds) / n_offered,
            deadline_hit_rate=met / n_completed if n_completed else 0.0,
            latency=LatencyStats.from_latencies(
                np.asarray([r.latency_s for r in all_responses])
            ),
            tenants=per_tenant_stats(
                all_responses, all_sheds, all_fails,
                profiles=book.profiles, span_s=span,
                cache_response_ids=cache_ids,
            ),
            servers=tuple(server_results),
            n_failed=len(all_fails),
            responses=tuple(all_responses),
            sheds=tuple(all_sheds),
            fails=tuple(all_fails),
        )
        self._publish(result, gw)
        if monitor is not None:
            monitor.finalize(result, plan=faults, telemetry=self.telemetry)
        return result

    def _publish(self, result: GatewayResult, gw: MetricsRegistry) -> None:
        """Fold a replay's gateway tallies into the telemetry handle."""
        if self.telemetry is NULL_TELEMETRY:
            return
        out = self.telemetry.metrics
        out.absorb(gw)
        out.gauge(
            "gateway_cache_hit_rate", "served-from-cache fraction of quotes"
        ).set(result.cache_hit_rate)
        out.gauge(
            "gateway_goodput_rps", "gateway-wide in-deadline completions per second"
        ).set(result.goodput_rps)
        out.gauge(
            "gateway_span_seconds", "first arrival to last completion"
        ).set(result.span_seconds)
        out.counter(
            "gateway_requests_completed_total", "requests answered via the gateway"
        ).inc(result.n_completed)
