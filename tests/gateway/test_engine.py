"""Unit tests for the gateway engine: route → admit → cache → dispatch."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.api import VectorizedBackend
from repro.cluster.batching import BatchQueue
from repro.cluster.node import ClusterNode
from repro.errors import ValidationError
from repro.gateway import (
    DEFAULT_TENANTS,
    Gateway,
    PASSTHROUGH_TENANT,
    TenantProfile,
    make_tenant_stream,
    make_tick_stream,
    per_tenant_stats,
)
from repro.serving import PricingRequest, QuoteServer, make_request_stream
from repro.serving.request import (
    FailRecord,
    PricingResponse,
    ShedReason,
    ShedRecord,
)
from repro.telemetry import Telemetry

from .conftest import N_POSITIONS, N_STATES, small_gateway


class TestConstruction:
    def test_one_calibration_shared_by_every_replica(
        self, book, tape, gateway_scenario, monkeypatch
    ):
        """Replicas share the first one's cost model: one engine timing run."""
        calls = []
        kernel_cycles = ClusterNode.kernel_cycles

        def counting_kernel_cycles(node, *args, **kwargs):
            calls.append(node)
            return kernel_cycles(node, *args, **kwargs)

        monkeypatch.setattr(ClusterNode, "kernel_cycles", counting_kernel_cycles)
        gw = small_gateway(book, tape, gateway_scenario, n_servers=3)
        assert len(calls) == 1
        standalone = QuoteServer(
            book, tape, scenario=gateway_scenario, n_cards=2, n_engines=2
        )
        assert len(calls) == 2
        for server in gw.servers:
            assert server.cost_model == standalone.cost_model


    def test_one_backend_instance_behind_every_replica(
        self, book, tape, gateway_scenario, stream, ticks
    ):
        """Every replica runs on one server, so an instance binds once."""
        shared = small_gateway(
            book, tape, gateway_scenario, n_servers=3,
            backend=VectorizedBackend(),
        )
        named = small_gateway(book, tape, gateway_scenario, n_servers=3)
        assert all(server is shared.servers[0] for server in shared.servers)
        res = shared.serve(stream, ticks=ticks)
        base = named.serve(stream, ticks=ticks)
        assert res == base
        assert res.responses == base.responses


def _stream_digest(requests) -> str:
    h = hashlib.sha256()
    for r in requests:
        h.update(repr((
            r.request_id, r.kind, r.arrival_s.hex(), r.deadline_s.hex(),
            r.rows, r.option_index, r.priority, r.tenant,
        )).encode())
    return h.hexdigest()


class TestTenantStream:
    #: Digests recorded when every Zipf draw was a per-request
    #: ``Generator.choice(n, p=...)`` call; the precomputed-CDF sampler
    #: must reproduce that stream exactly.
    DIGESTS = {
        7: "5e5419f669982c25f2c221f829b9b340f49f67a689172ba602e474ba8d2ddd0d",
        17: "041965909cd001c5e56898f151cf3623126eed59d8641e832694942abde76e77",
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_stream_pinned(self, seed):
        stream = make_tenant_stream(
            800, rate_hz=40_000.0, n_states=N_STATES,
            n_positions=N_POSITIONS, var_rows=6, seed=seed,
        )
        assert _stream_digest(stream) == self.DIGESTS[seed]


class TestTickStream:
    @pytest.mark.parametrize("n_ticks", [0, 5])
    @pytest.mark.parametrize("rate_hz", [math.nan, -5.0, 0.0, math.inf])
    def test_rate_checked_even_with_no_ticks(self, n_ticks, rate_hz):
        with pytest.raises(ValidationError, match="rate_hz must be"):
            make_tick_stream(n_ticks, rate_hz=rate_hz, n_states=4)


class TestPerTenantStats:
    @staticmethod
    def _request(i, tenant):
        return PricingRequest(
            request_id=i, kind="reval", arrival_s=0.0, deadline_s=1.0,
            rows=(0,), tenant=tenant,
        )

    def test_each_record_billed_once_to_its_tenant(self):
        """Unlabelled records go to the first profile; records of a
        tenant outside the profiles are left out."""
        tenants = [None, "gold", "silver", "nobody", "gold", None]
        responses = [
            PricingResponse(
                request_id=i, kind="reval", value=0.0, arrival_s=0.0,
                formed_s=0.0, completion_s=0.5, latency_s=0.5,
                met_deadline=i != 4, batch_id=0, cards=(0,), tenant=t,
            )
            for i, t in enumerate(tenants)
        ]
        sheds = [
            ShedRecord(self._request(10, "silver"), 0.1, ShedReason.QUOTA),
            ShedRecord(self._request(11, None), 0.1, ShedReason.QUOTA),
            ShedRecord(self._request(12, "silver"), 0.1, ShedReason.DEADLINE),
            ShedRecord(self._request(13, "nobody"), 0.1, ShedReason.QUOTA),
        ]
        fails = [FailRecord(self._request(20, "gold"), 0.2, attempts=2)]
        gold, silver = per_tenant_stats(
            responses, sheds, fails, profiles=DEFAULT_TENANTS[:2],
            span_s=2.0, cache_response_ids=frozenset({0, 2, 3}),
        )
        assert (gold.tenant, gold.tier, silver.tenant) == (
            "gold", "gold", "silver"
        )
        assert (gold.n_offered, gold.n_completed, gold.n_shed,
                gold.n_shed_quota, gold.n_failed, gold.n_cache_hits,
                gold.n_deadline_met) == (6, 4, 1, 1, 1, 1, 3)
        assert (silver.n_offered, silver.n_completed, silver.n_shed,
                silver.n_shed_quota, silver.n_failed, silver.n_cache_hits,
                silver.n_deadline_met) == (3, 1, 2, 1, 0, 1, 1)
        assert gold.goodput_rps == 1.5 and silver.goodput_rps == 0.5


class TestServe:
    def test_every_request_accounted_for(self, gateway, stream, ticks):
        res = gateway.serve(stream, ticks=ticks)
        assert res.n_offered == len(stream)
        assert res.n_completed + res.n_shed + res.n_failed == res.n_offered
        answered = {r.request_id for r in res.responses}
        shed = {s.request.request_id for s in res.sheds}
        assert answered | shed == {r.request_id for r in stream}
        assert not (answered & shed)

    def test_deterministic(self, gateway, stream, ticks):
        assert gateway.serve(stream, ticks=ticks) == gateway.serve(
            stream, ticks=ticks
        )

    def test_tenant_stats_sum_to_aggregate(self, gateway, stream):
        res = gateway.serve(stream)
        assert sum(t.n_offered for t in res.tenants) == res.n_offered
        assert sum(t.n_completed for t in res.tenants) == res.n_completed
        assert sum(t.n_shed for t in res.tenants) == res.n_shed
        assert sum(t.goodput_rps for t in res.tenants) == pytest.approx(
            res.goodput_rps
        )

    def test_server_results_cover_routed_traffic(self, gateway, stream):
        res = gateway.serve(stream)
        assert len(res.servers) == gateway.n_servers
        # Routed (non-quota, non-cache-path) traffic lands on the lanes.
        routed = sum(s.n_offered for s in res.servers)
        cache_served = res.n_cache_hits + res.n_cache_joins
        assert routed == res.n_offered - res.n_shed_quota - cache_served

    def test_responses_carry_tenants(self, gateway, stream):
        res = gateway.serve(stream)
        names = {p.name for p in DEFAULT_TENANTS}
        assert {r.tenant for r in res.responses} <= names
        assert res.summary()

    def test_validation(self, gateway, book, tape, gateway_scenario):
        with pytest.raises(ValidationError):
            gateway.serve([])
        with pytest.raises(ValidationError):
            small_gateway(book, tape, gateway_scenario, n_servers=0)
        bad = make_request_stream(
            5, rate_hz=1000.0, n_states=N_STATES, n_positions=N_POSITIONS
        )
        bad[0] = replace(bad[0], tenant="nobody")
        with pytest.raises(ValidationError):
            gateway.serve(bad)

    def test_duplicate_request_id_rejected(self, gateway):
        """Two leaders under one id would strand the first one's joiner."""
        trace = [
            PricingRequest(1, "quote", 0.0, 1.0, rows=(0,), option_index=0),
            PricingRequest(1, "quote", 0.0, 1.0, rows=(1,), option_index=0),
            PricingRequest(2, "quote", 1e-4, 1.0, rows=(0,), option_index=0),
        ]
        with pytest.raises(ValidationError, match="request id 1 appears"):
            gateway.serve(trace)

    def test_first_bad_request_in_trace_order_is_named(self, gateway):
        """Whatever is wrong, the earliest bad arrival raises its message."""
        stream = make_request_stream(
            6, rate_hz=1000.0, n_states=N_STATES, n_positions=N_POSITIONS
        )
        stream[4] = replace(stream[4], tenant="nobody")
        stream[2] = replace(stream[2], rows=(N_STATES,), kind="reval",
                            option_index=None)
        with pytest.raises(ValidationError, match=(
            f"request {stream[2].request_id} references market row"
        )):
            gateway.serve(stream)
        stream[1] = replace(stream[1], tenant="nobody")
        with pytest.raises(ValidationError, match="unknown tenant 'nobody'"):
            gateway.serve(stream)


class TestQuota:
    def test_quota_sheds_are_typed(self, book, tape, gateway_scenario):
        tenants = (
            TenantProfile(name="tiny", quota_rps=200.0, burst=2.0),
        )
        gw = small_gateway(book, tape, gateway_scenario, tenants=tenants)
        stream = make_tenant_stream(
            300, rate_hz=30_000.0, n_states=N_STATES,
            n_positions=N_POSITIONS, tenants=tenants, seed=11,
        )
        res = gw.serve(stream)
        assert res.n_shed_quota > 0
        quota = [s for s in res.sheds if s.reason is ShedReason.QUOTA]
        assert len(quota) == res.n_shed_quota
        assert res.tenants[0].n_shed_quota == res.n_shed_quota
        # quota sheds never reached a server queue
        assert all(s.n_offered <= 300 - res.n_shed_quota for s in res.servers)

    def test_unlimited_tenant_never_quota_shed(self, gateway, stream):
        res = gateway.serve(stream)
        gold = next(t for t in res.tenants if t.tenant == "gold")
        assert gold.n_shed_quota == 0


class TestCache:
    def test_cache_dedups_and_speeds_up(self, gateway, book, tape,
                                        gateway_scenario, stream):
        on = gateway.serve(stream)
        off = small_gateway(
            book, tape, gateway_scenario, cache=False
        ).serve(stream)
        assert on.n_cache_hits + on.n_cache_joins > 0
        assert on.cache_hit_rate > 0.0
        assert off.cache_hit_rate == 0.0
        # the cache strictly reduces kernel work
        on_rows = sum(
            c.n_rows for s in on.servers for c in s.cards
        )
        off_rows = sum(
            c.n_rows for s in off.servers for c in s.cards
        )
        assert on_rows < off_rows

    def test_cached_values_bit_identical(self, gateway, book, tape,
                                         gateway_scenario, stream, ticks):
        on = gateway.serve(stream, ticks=ticks)
        off = small_gateway(
            book, tape, gateway_scenario, cache=False
        ).serve(stream)
        v_on = {r.request_id: r.value for r in on.responses}
        v_off = {r.request_id: r.value for r in off.responses}
        common = set(v_on) & set(v_off)
        assert common
        assert all(v_on[i] == v_off[i] for i in common)

    def test_shed_leader_takes_its_joiners(self, book, tape, gateway_scenario):
        """A leader shed on its deadline before its batch forms sheds the
        quotes that joined its flight, each exactly once."""
        gw = small_gateway(
            book, tape, gateway_scenario, n_servers=1,
            queue=BatchQueue(max_batch=64, linger_s=5e-3),
            tenants=(PASSTHROUGH_TENANT,),
        )
        stream = make_tenant_stream(
            400, rate_hz=40_000.0, n_states=4, n_positions=2,
            tenants=(PASSTHROUGH_TENANT,), mix=(1.0, 0.0, 0.0),
            quote_deadline_s=(2e-3, 8e-3), seed=3,
        )
        res = gw.serve(stream)
        leaders = len(res.servers[0].sheds)
        assert 0 < leaders < res.n_shed == res.n_shed_deadline
        outcomes = [r.request_id for r in res.responses] + [
            s.request.request_id for s in res.sheds
        ]
        assert sorted(outcomes) == [r.request_id for r in stream]

    def test_ticks_invalidate(self, gateway, stream, ticks):
        res = gateway.serve(stream, ticks=ticks)
        assert res.n_cache_invalidations > 0
        # invalidation can only cost hits
        quiet = gateway.serve(stream)
        assert quiet.n_cache_hits >= res.n_cache_hits

    def test_tick_row_validated(self, gateway, book, tape, gateway_scenario,
                                stream):
        """Tick rows are checked before the replay, cache on or off."""
        off = small_gateway(book, tape, gateway_scenario, cache=False)
        for gw in (gateway, off):
            for row in (N_STATES, 99, -1, 2.5, True):
                with pytest.raises(ValidationError, match="tick row"):
                    gw.serve(stream, ticks=[(0.0, row)])
            # NumPy integers index the tape like plain ones.
            gw.serve(stream, ticks=[(0.0, np.int64(N_STATES - 1))])

    def test_tick_time_validated(self, gateway, book, tape, gateway_scenario,
                                 stream):
        """Tick times are checked before the replay, cache on or off."""
        off = small_gateway(book, tape, gateway_scenario, cache=False)
        for gw in (gateway, off):
            for time in (-1.0, math.nan, math.inf):
                with pytest.raises(ValidationError, match="tick time"):
                    gw.serve(stream, ticks=[(time, 0)])


class TestIdentityPin:
    """1 server + passthrough tenant + cache off == plain QuoteServer."""

    def test_lane_equals_server(self, book, tape, gateway_scenario):
        stream = make_request_stream(
            300, rate_hz=10_000.0, n_states=N_STATES,
            n_positions=N_POSITIONS, var_rows=6, seed=11,
        )
        queue = BatchQueue(max_batch=16, linger_s=1e-3)
        server = QuoteServer(
            book, tape, scenario=gateway_scenario, n_cards=2, n_engines=2,
            queue=queue, queue_depth=256,
        )
        base = server.serve(stream)
        gw = small_gateway(
            book, tape, gateway_scenario, n_servers=1,
            tenants=(PASSTHROUGH_TENANT,), cache=False,
        )
        res = gw.serve(stream)
        assert res.servers[0] == base
        assert res.n_completed == base.n_completed
        assert res.goodput_rps == base.goodput_rps
        assert {r.request_id: r.value for r in res.responses} == {
            r.request_id: r.value for r in base.responses
        }


class TestDrain:
    def test_drained_server_gets_nothing(self, book, tape, gateway_scenario,
                                         stream):
        gw = small_gateway(book, tape, gateway_scenario, n_servers=3)
        gw.drain(1)
        res = gw.serve(stream)
        assert res.servers[1].n_offered == 0
        assert res.servers[1].n_completed == 0
        assert res.n_completed + res.n_shed == res.n_offered


class TestTelemetry:
    def test_gateway_metrics_published(self, book, tape, gateway_scenario,
                                       stream, ticks):
        tel = Telemetry.recording()
        gw = small_gateway(book, tape, gateway_scenario, telemetry=tel)
        res = gw.serve(stream, ticks=ticks)
        keys = tel.metrics.names()
        for name in (
            "gateway_requests_total",
            "gateway_routed_total",
            "gateway_cache_hits_total",
            "gateway_cache_misses_total",
            "gateway_cache_hit_rate",
            "gateway_goodput_rps",
            "gateway_requests_completed_total",
        ):
            assert any(k.startswith(name) for k in keys), name
        spans = tel.recorder.for_track("gateway")
        assert any(s.name == "cache_hit" for s in spans)
        assert res.n_cache_hits > 0


class TestFaults:
    def test_fault_plan_hits_one_lane(self, book, tape, gateway_scenario,
                                      stream):
        from repro.faults import FaultPlan

        plan = FaultPlan.from_spec("crash:card=0,at=0.002,repair=0.01")
        gw = small_gateway(book, tape, gateway_scenario)
        res = gw.serve(stream, faults=plan, fault_server=1)
        assert res.n_completed + res.n_shed + res.n_failed == res.n_offered
        # clean lane is untouched by the plan
        clean = gw.serve(stream)
        assert res.servers[0].n_offered == clean.servers[0].n_offered

    @pytest.mark.parametrize("index", [0.5, True, math.nan, -1, 2])
    def test_fault_server_must_index_a_server(self, gateway, stream, index):
        """Only an integer in [0, n_servers) picks the faulted lane (2
        is n_servers here): 0.5 would fault no lane and True lane 1,
        while the report carried the plan either way."""
        from repro.faults import FaultPlan

        assert gateway.n_servers == 2
        plan = FaultPlan.from_spec("correlated:cards=0+1,at=0.0", seed=7)
        with pytest.raises(
            ValidationError, match="fault_server must index a server"
        ):
            gateway.serve(stream, faults=plan, fault_server=index)
