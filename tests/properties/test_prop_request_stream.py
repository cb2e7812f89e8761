"""Property tests pinning every generated serving trace draw for draw.

``make_request_stream`` reads each run of requests between two VaRs from
one ``random_raw`` call and decodes the draws itself.  The traces must
stay equal, field for field, to the per-request loop it replaced, kept
here as the oracle: a request at a time, its deadline a ``uniform`` call,
its row an ``integers(n_states)`` call (a VaR's a ``choice(n_states, k,
replace=False)``) and a quote's contract an ``integers(n_positions)``
call.  The ``BENCH_serving.json`` replay and the serving goldens rest on
that equality.

It rests on how NumPy's ``PCG64`` generator makes those draws from its
raw 64-bit words, checked here by name on the running NumPy
(:class:`TestRawWordRules`), so a build that changes one fails before
any trace moves.  ``uniform(lo, hi)`` being ``lo + (hi - lo) *
random()`` is checked with the gateway stream's rules, in
``tests/properties/test_prop_tenant_stream.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.serving.request import PricingRequest
from repro.serving.workload import KIND_PRIORITY, make_request_stream, stream_spec
from repro.workloads.traffic import make_arrivals

RATE_HZ = 20_000.0

#: A bound just above ``2**31``: about half of its Lemire draws are
#: redrawn (``2**32 % n`` is ``2**31 - 1``).
WIDE = 2**31 + 1


def per_request_stream(
    n_requests,
    *,
    rate_hz,
    n_states,
    n_positions,
    traffic,
    mix,
    var_rows,
    quote_deadline_s,
    reval_deadline_s,
    seed,
    var_deadline_s=(5e-2, 2e-1),
):
    """The loop ``make_request_stream`` ran before runs were read from
    raw words: every draw one scalar ``Generator`` call, in trace order."""
    probs, deadline_range = stream_spec(
        mix, var_rows, quote_deadline_s, reval_deadline_s, var_deadline_s
    )
    times = make_arrivals(traffic, n_requests, rate_hz, seed=seed)
    gen = np.random.default_rng(seed + 1)
    kinds = gen.choice(("quote", "reval", "var"), size=n_requests, p=probs)
    k_var = min(var_rows, n_states)
    requests = []
    for i, (t, kind) in enumerate(zip(times, kinds)):
        lo, hi = deadline_range[kind]
        deadline = float(t + gen.uniform(lo, hi))
        if kind == "var":
            rows = tuple(
                int(r) for r in np.sort(gen.choice(n_states, k_var, replace=False))
            )
        else:
            rows = (int(gen.integers(n_states)),)
        requests.append(
            PricingRequest(
                i, str(kind), float(t), deadline, rows,
                int(gen.integers(n_positions)) if kind == "quote" else None,
                KIND_PRIORITY[str(kind)],
            )
        )
    return requests


#: Tape and book sizes: a bound of 1 (no draw), 2, powers of two and
#: their neighbours, and :data:`WIDE`.
SIZES = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256, 257, 2**16 + 1, 2**31 - 1,
         WIDE)


@st.composite
def mixes(draw, var=True):
    """``(quote, reval, var)`` mixes: quote-only, reval-only and
    VaR-heavy ones come up often."""
    weights = draw(
        st.one_of(
            st.sampled_from(((1, 0, 0), (0, 1, 0), (1, 1, 4), (0, 1, 5))),
            st.tuples(*[st.integers(min_value=0, max_value=6)] * 3),
        )
    )
    if not var:
        weights = (*weights[:2], 0)
    assume(any(weights))
    total = sum(weights)
    return tuple(w / total for w in weights)


@st.composite
def configs(draw):
    """Tape and book sizes with a mix; no VaR beside a :data:`WIDE` bound,
    where a redraw is likely on every run and each costs a pass over the
    rest of the trace."""
    n_states, n_positions = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SIZES))
    var = WIDE not in (n_states, n_positions)
    return {"n_states": n_states, "n_positions": n_positions, "mix": draw(mixes(var))}


@st.composite
def deadline_ranges(draw):
    """Float bounds, and int bounds, which ``uniform`` takes as doubles."""
    if draw(st.booleans()):
        lo = draw(st.integers(min_value=1, max_value=3))
        return (lo, lo + draw(st.integers(min_value=0, max_value=3)))
    lo = draw(st.floats(min_value=1e-6, max_value=0.5))
    return (lo, lo + draw(st.floats(min_value=0.0, max_value=0.5)))


CASE = dict(
    n_requests=200, traffic="poisson", var_rows=4, quote_deadline_s=(5e-3, 2e-2),
    reval_deadline_s=(2e-2, 5e-2), seed=7,
)


@given(
    n_requests=st.integers(min_value=1, max_value=300),
    config=configs(),
    traffic=st.sampled_from(("poisson", "bursty", "diurnal")),
    var_rows=st.integers(min_value=1, max_value=12),
    quote_deadline_s=deadline_ranges(),
    reval_deadline_s=deadline_ranges(),
    seed=st.integers(min_value=0, max_value=2**20),
)
@example(config=dict(n_states=256, n_positions=32, mix=(0.9, 0.08, 0.02)), **CASE)
# Runs of revals draw no half-word: the buffer a quote run leaves must
# reach the next one.
@example(config=dict(n_states=1, n_positions=5, mix=(0.4, 0.4, 0.2)), **CASE)
@example(config=dict(n_states=1, n_positions=1, mix=(0.5, 0.3, 0.2)), **CASE)
@example(config=dict(n_states=WIDE, n_positions=WIDE, mix=(0.7, 0.3, 0.0)), **CASE)
@example(
    config=dict(n_states=256, n_positions=32, mix=(0.9, 0.08, 0.02)),
    **{**CASE, "quote_deadline_s": (1, 2), "reval_deadline_s": (3, 3)},
)
@settings(max_examples=80, deadline=None)
def test_request_stream_equals_the_per_request_loop(n_requests, config, **case):
    case.update(config)
    stream = make_request_stream(n_requests, rate_hz=RATE_HZ, **case)
    assert stream == per_request_stream(n_requests, rate_hz=RATE_HZ, **case)
    assert all(
        type(r.arrival_s) is float and type(r.deadline_s) is float
        and all(type(row) is int for row in r.rows)
        and type(r.option_index) is (int if r.kind == "quote" else type(None))
        for r in stream
    )


def test_runs_after_a_redrawn_run_are_read_afresh():
    """A :data:`WIDE` book with VaRs in the mix: about half the contract
    draws are redrawn, so many runs are drawn again through the calls,
    and the VaRs and runs after each one from the state it leaves."""
    case = {**CASE, "n_states": 5, "n_positions": WIDE, "mix": (0.6, 0.2, 0.2)}
    n = case.pop("n_requests")
    assert make_request_stream(n, rate_hz=RATE_HZ, **case) == per_request_stream(
        n, rate_hz=RATE_HZ, **case
    )


@given(
    a=st.floats(min_value=0.0, max_value=1.0),
    b=st.floats(min_value=0.0, max_value=1.0),
    miss=st.one_of(
        st.floats(min_value=-4e-8, max_value=4e-8),
        st.sampled_from((1.5e-8, 1.4901161193847656e-08, 1.49e-8, 5e-6, -5e-6)),
    ),
)
@example(a=0.9, b=0.1, miss=5e-6)
@settings(max_examples=300, deadline=None)
def test_mix_check_is_the_tolerance_of_choice(a, b, miss):
    """``stream_spec`` takes a mix exactly when ``Generator.choice``
    draws from it, so a generator never fails on a mix it accepted."""
    mix = (a, b, 1.0 - a - b + miss)
    try:
        stream_spec(mix, 4, (1e-3, 2e-3), (1e-3, 2e-3), (1e-3, 2e-3))
        accepted = True
    except ValidationError:
        accepted = False
    try:
        np.random.default_rng(0).choice(3, p=np.asarray(mix, dtype=np.float64))
        draws = True
    except ValueError:
        draws = False
    assert accepted == draws


# ----------------------------------------------------------------------
# The PCG64 rules the raw-word runs rest on
# ----------------------------------------------------------------------
class RawModel:
    """PCG64's ``random`` and ``integers(n)``, made from its raw words."""

    def __init__(self, seed: int) -> None:
        self.bits = np.random.default_rng(seed).bit_generator
        self.buffer: int | None = None
        self.redraws = 0

    def word(self) -> int:
        return int(self.bits.random_raw())

    def random(self) -> float:
        return (self.word() >> 11) * 2.0**-53

    def half(self) -> int:
        """The buffered high half, else a new word's low half."""
        if self.buffer is not None:
            half, self.buffer = self.buffer, None
            return half
        word = self.word()
        self.buffer = word >> 32
        return word & 0xFFFF_FFFF

    def integers(self, n: int) -> int:
        """Lemire's method, redrawing a half-word whose leftover is below
        ``2**32 % n``."""
        if n == 1:
            return 0
        while True:
            scaled = self.half() * n
            if scaled % 2**32 >= 2**32 % n:
                return scaled >> 32
            self.redraws += 1


class TestRawWordRules:
    """The draws of NumPy's default generator, against :class:`RawModel`."""

    @pytest.mark.parametrize("seed", [0, 7, 1009])
    def test_random_is_the_top_53_bits_of_the_next_word(self, seed):
        gen, model = np.random.default_rng(seed), RawModel(seed)
        assert [gen.random() for _ in range(2000)] == [
            model.random() for _ in range(2000)
        ]

    @pytest.mark.parametrize(
        "n", [2, 3, 7, 32, 256, 1000, 2**16 + 1, 2**31 - 1, 2**32 - 1]
    )
    @pytest.mark.parametrize("seed", [0, 7, 1009])
    def test_integers_is_lemire_on_the_next_half_word(self, n, seed):
        """Low half first, the high half buffered to the next call, and
        whole-word ``random`` draws between them leave it there."""
        gen, model = np.random.default_rng(seed), RawModel(seed)
        for pattern in ((1,), (1, 1), (0, 1, 1), (1, 0, 1, 0, 0, 1)) * 100:
            for bounded in pattern:
                if bounded:
                    assert gen.integers(n) == model.integers(n)
                else:
                    assert gen.random() == model.random()
        state = gen.bit_generator.state
        assert state["has_uint32"] == (model.buffer is not None)
        if model.buffer is not None:
            assert state["uinteger"] == model.buffer

    @pytest.mark.parametrize("seed", [0, 7, 1009])
    def test_a_rejected_half_word_is_redrawn(self, seed):
        gen, model = np.random.default_rng(seed), RawModel(seed)
        assert [gen.integers(WIDE) for _ in range(200)] == [
            model.integers(WIDE) for _ in range(200)
        ]
        assert model.redraws > 0

    @pytest.mark.parametrize("buffered", [False, True])
    def test_integers_of_one_draws_nothing(self, buffered):
        gen = np.random.default_rng(7)
        if buffered:
            gen.integers(10)
        state = gen.bit_generator.state
        assert gen.integers(1) == 0
        assert gen.bit_generator.state == state
