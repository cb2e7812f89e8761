"""Property tests pinning every generated gateway trace draw for draw.

``make_tenant_stream`` draws each run of consecutive quotes in one
``Generator.random`` call.  The traces must stay equal, field for field,
to the per-request loop it replaced, kept here as the oracle: a request
at a time, each quote's deadline a ``uniform`` call and its row and
contract ``choice(n, p=...)`` calls.  The ``BENCH_gateway.json`` replay
and the gateway goldens rest on that equality.

It rests on two rules of NumPy's generator, checked here by name on the
running NumPy, so a build that breaks one fails before any trace moves:
``uniform(lo, hi)`` is ``lo + (hi - lo) * random()`` rounded twice (a
build that fuses it into one FMA breaks it), and ``random((m, 3))``
makes the same ``3 * m`` draws as scalar ``random()`` calls, in
row-major order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gateway import DEFAULT_TENANTS, PASSTHROUGH_TENANT, TenantProfile
from repro.gateway.workload import QUOTE_SKEW, make_tenant_stream
from repro.serving.request import PricingRequest
from repro.serving.workload import KIND_PRIORITY, stream_spec
from repro.workloads.traffic import multi_tenant_arrivals, zipf_weights

RATE_HZ = 20_000.0


def per_request_stream(
    n_requests,
    *,
    rate_hz,
    n_states,
    n_positions,
    tenants,
    traffic,
    mix,
    var_rows,
    quote_deadline_s,
    seed,
    reval_deadline_s=(2e-2, 5e-2),
    var_deadline_s=(5e-2, 2e-1),
):
    """The loop ``make_tenant_stream`` ran before quote runs were drawn
    in bulk: every draw one scalar ``Generator`` call, in trace order."""
    tenants = tuple(tenants)
    probs, deadline_range = stream_spec(
        mix, var_rows, quote_deadline_s, reval_deadline_s, var_deadline_s
    )
    times, tenant_idx = multi_tenant_arrivals(
        n_requests, rate_hz, [p.share for p in tenants], traffic=traffic,
        seed=seed,
    )
    gen = np.random.default_rng(seed + 1)
    kinds = gen.choice(("quote", "reval", "var"), size=n_requests, p=probs)
    row_p = zipf_weights(n_states, QUOTE_SKEW)
    option_p = zipf_weights(n_positions, QUOTE_SKEW)
    k_var = min(var_rows, n_states)
    requests = []
    for i, (t, kind, ti) in enumerate(zip(times, kinds, tenant_idx)):
        tenant = tenants[int(ti)]
        lo, hi = deadline_range[kind]
        deadline = float(t + tenant.deadline_scale * gen.uniform(lo, hi))
        option_index = None
        if kind == "quote":
            rows = (int(gen.choice(n_states, p=row_p)),)
            option_index = int(gen.choice(n_positions, p=option_p))
        elif kind == "reval":
            rows = (int(gen.integers(n_states)),)
        else:  # var
            rows = tuple(
                int(r) for r in np.sort(gen.choice(n_states, k_var, replace=False))
            )
        requests.append(
            PricingRequest(
                request_id=i,
                kind=str(kind),
                arrival_s=float(t),
                deadline_s=deadline,
                rows=rows,
                option_index=option_index,
                priority=KIND_PRIORITY[str(kind)],
                tenant=tenant.name,
            )
        )
    return requests


@st.composite
def mixes(draw):
    """``(quote, reval, var)`` mixes; zero weights make all-quote and
    no-quote traces common."""
    weights = draw(
        st.tuples(*[st.integers(min_value=0, max_value=6)] * 3).filter(any)
    )
    total = sum(weights)
    return tuple(w / total for w in weights)


#: Tenant sets: the stock profiles and profiles with generated shares
#: and deadline classes, so the tenant scale multiplies arbitrary doubles.
tenant_sets = st.one_of(
    st.lists(
        st.sampled_from((*DEFAULT_TENANTS, PASSTHROUGH_TENANT)),
        min_size=1,
        max_size=4,
        unique_by=lambda p: p.name,
    ),
    st.lists(
        st.builds(
            TenantProfile,
            name=st.sampled_from(("a", "b", "c")),
            deadline_scale=st.floats(min_value=0.1, max_value=10.0),
            share=st.floats(min_value=0.01, max_value=1.0),
        ),
        min_size=1,
        max_size=3,
        unique_by=lambda p: p.name,
    ),
)


@st.composite
def deadline_ranges(draw):
    lo = draw(st.floats(min_value=1e-6, max_value=0.5))
    return (lo, lo + draw(st.floats(min_value=0.0, max_value=0.5)))


CASE = dict(
    n_requests=120, n_states=16, n_positions=8, tenants=DEFAULT_TENANTS,
    traffic="poisson", var_rows=4, quote_deadline_s=(5e-3, 2e-2), seed=7,
)


@given(
    n_requests=st.integers(min_value=1, max_value=300),
    mix=mixes(),
    tenants=tenant_sets,
    traffic=st.sampled_from(("poisson", "bursty", "diurnal")),
    n_states=st.integers(min_value=1, max_value=80),
    n_positions=st.integers(min_value=1, max_value=40),
    var_rows=st.integers(min_value=1, max_value=12),
    quote_deadline_s=deadline_ranges(),
    seed=st.integers(min_value=0, max_value=2**20),
)
@example(**CASE, mix=(1.0, 0.0, 0.0))
@example(**CASE, mix=(0.0, 0.8, 0.2))
@example(**{**CASE, "n_states": 1, "n_positions": 1}, mix=(0.9, 0.05, 0.05))
@settings(max_examples=80, deadline=None)
def test_tenant_stream_equals_the_per_request_loop(n_requests, **case):
    stream = make_tenant_stream(n_requests, rate_hz=RATE_HZ, **case)
    assert stream == per_request_stream(n_requests, rate_hz=RATE_HZ, **case)
    assert all(
        type(r.arrival_s) is float and type(r.deadline_s) is float
        and all(type(row) is int for row in r.rows)
        for r in stream
    )


class TestGeneratorDrawRules:
    """The two NumPy rules the bulk quote draws rest on."""

    @pytest.mark.parametrize(
        "lo,hi",
        [(5e-3, 2e-2), (2e-2, 5e-2), (5e-2, 2e-1), (1e-9, 1.0), (0.3, 0.7),
         (1.0, 1e6)],
    )
    @pytest.mark.parametrize("seed", [0, 7, 1009])
    def test_uniform_is_lo_plus_range_times_random(self, lo, hi, seed):
        """Rounded twice, as two NumPy ufuncs compute it: a build whose
        ``uniform`` is one fused multiply-add fails here."""
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        scalar = [a.uniform(lo, hi) for _ in range(2000)]
        assert (lo + (hi - lo) * b.random(2000)).tolist() == scalar

    @pytest.mark.parametrize("m", [1, 2, 17, 1000])
    def test_random_block_is_its_scalar_draws_in_row_major_order(self, m):
        """Also with a 32-bit half-word that ``integers`` left buffered:
        the block treats it as the scalar draws do."""
        a, b = np.random.default_rng(m), np.random.default_rng(m)
        assert a.integers(10) == b.integers(10)
        block = a.random((m, 3))
        assert block.ravel().tolist() == [b.random() for _ in range(3 * m)]
        assert a.integers(1 << 20) == b.integers(1 << 20)
        assert a.bit_generator.state == b.bit_generator.state
