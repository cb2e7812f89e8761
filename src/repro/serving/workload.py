"""Serving workload construction: market tapes and request streams.

Arrival *times* come from :mod:`repro.workloads.traffic` (Poisson,
bursty, diurnal); this module attaches the payloads: a request mix of
single-name quotes, whole-book revals and mini VaR refreshes, each
referencing rows of a shared market tape, with per-kind deadlines and
priorities (live quotes are tightest and most urgent, VaR refreshes the
most relaxed).

A request stream makes the same ``Generator`` draws, in the same order,
as drawing one request at a time (the ``BENCH_serving.json`` replay and
the serving goldens rest on it), but each run of requests between two
VaRs reads its raw 64-bit words in one ``random_raw`` call.  That rests
on how NumPy's ``PCG64`` generator draws, which the test suite checks on
the running NumPy:

* ``random()`` is ``(w >> 11) * 2**-53`` of the next word ``w``, and
  ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``;
* ``integers(n)`` with ``2 <= n < 2**32`` is Lemire's method,
  ``(h * n) >> 32``, on the next 32-bit half-word ``h``, drawn again
  while ``(h * n) % 2**32 < 2**32 % n``; ``integers(1)`` draws nothing;
* a half-word draw takes a new word's low half and leaves its high half
  for the next one, in the state's ``has_uint32`` / ``uinteger`` buffer,
  which whole-word draws leave alone.

A run that hits a Lemire redraw is drawn again, from the state it
started in, through the per-request calls, as are the VaRs and a trace
whose tape or book is too long for a half-word.
"""

from __future__ import annotations

import numpy as np

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.validation import (
    check_bounds,
    check_count,
    check_non_negative_finite,
    check_positive_finite,
    check_range,
)
from repro.errors import ValidationError
from repro.risk.scenarios import monte_carlo
from repro.risk.tensor import ScenarioTensor
from repro.serving.request import PricingRequest
from repro.workloads.traffic import ChoiceSampler, make_arrivals

__all__ = [
    "make_market_tape",
    "make_request_stream",
    "make_risk_refresh_stream",
]

#: Per-kind coalescer priority: quotes jump the queue, VaR waits.
KIND_PRIORITY = {"quote": 2, "reval": 1, "var": 0}

#: ``integers(n)`` takes a bound below this from one 32-bit half-word.
_HALF_WORD = 1 << 32
_LOW_HALF = _HALF_WORD - 1


def make_market_tape(
    yield_curve: YieldCurve,
    hazard_curve: HazardCurve,
    n_states: int,
    *,
    seed: int = 101,
) -> ScenarioTensor:
    """A dense tape of live market states around a base state.

    The states are correlated Monte Carlo draws
    (:func:`~repro.risk.scenarios.monte_carlo`): the tape is the
    :class:`~repro.risk.tensor.ScenarioTensor` the generator writes and
    the batched kernel consumes, with no scenario objects built — the
    serving analogue of a market-data cache fed by tick updates.

    Parameters
    ----------
    yield_curve / hazard_curve:
        Base market state.
    n_states:
        Tape length (requests reference rows ``0 .. n_states - 1``).
    seed:
        Deterministic generator seed.
    """
    check_count(n_states, "n_states")
    return monte_carlo(yield_curve, hazard_curve, n_states, seed=seed).tensor


def _sums_to_one(p: np.ndarray) -> bool:
    """Whether ``Generator.choice`` takes ``p`` as summing to 1: its Kahan
    sum, in index order, within :attr:`ChoiceSampler.SUM_TOLERANCE` of 1."""
    total, *rest = p.tolist()
    carry = 0.0
    for x in rest:
        y = x - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return abs(total - 1.0) <= ChoiceSampler.SUM_TOLERANCE


def stream_spec(mix, var_rows, quote_deadline_s, reval_deadline_s, var_deadline_s):
    """Check a request stream's payload parameters: the ``(quote, reval,
    var)`` mix, the VaR width and the per-kind ``(lo, hi)`` relative
    deadlines.  Returns the mix as probabilities and the deadline ranges
    by kind."""
    probs = np.asarray(mix, dtype=np.float64)
    if probs.shape != (3,) or not np.all(probs >= 0) or not _sums_to_one(probs):
        raise ValidationError(
            f"mix must be three non-negative probabilities summing to 1, got {mix}"
        )
    check_count(var_rows, "var_rows")
    deadlines = {
        "quote": quote_deadline_s,
        "reval": reval_deadline_s,
        "var": var_deadline_s,
    }
    for kind, bounds in deadlines.items():
        check_bounds(bounds, f"{kind}_deadline_s")
    return probs, deadlines


def make_request_stream(
    n_requests: int,
    *,
    rate_hz: float,
    n_states: int,
    n_positions: int,
    traffic: str = "poisson",
    mix: tuple[float, float, float] = (0.90, 0.08, 0.02),
    var_rows: int = 8,
    quote_deadline_s: tuple[float, float] = (5e-3, 2e-2),
    reval_deadline_s: tuple[float, float] = (2e-2, 5e-2),
    var_deadline_s: tuple[float, float] = (5e-2, 2e-1),
    seed: int = 17,
) -> list[PricingRequest]:
    """A seeded request trace over a market tape.

    Parameters
    ----------
    n_requests:
        Trace length.
    rate_hz:
        Offered arrival rate.
    n_states:
        Market-tape length requests sample rows from.
    n_positions:
        Book size (quote requests sample an option index).
    traffic:
        Arrival-process registry key (``poisson``, ``bursty``,
        ``diurnal``).
    mix:
        ``(quote, reval, var)`` probabilities; must sum to 1.
    var_rows:
        Market states per VaR refresh (capped at the tape length).
    quote_deadline_s / reval_deadline_s / var_deadline_s:
        Per-kind ``(lo, hi)`` relative-deadline ranges, sampled
        uniformly.
    seed:
        Deterministic seed for both arrival times and payloads.

    Returns
    -------
    list[PricingRequest]
        Requests in arrival order, ids ``0 .. n_requests - 1``.
    """
    check_count(n_requests, "n_requests")
    check_count(n_states, "n_states")
    check_count(n_positions, "n_positions")
    probs, deadline_range = stream_spec(
        mix, var_rows, quote_deadline_s, reval_deadline_s, var_deadline_s
    )

    times = make_arrivals(traffic, n_requests, rate_hz, seed=seed)
    gen = np.random.default_rng(seed + 1)
    kinds = gen.choice(("quote", "reval", "var"), size=n_requests, p=probs)
    draws = _PayloadDraws(
        kinds, n_states, n_positions, min(var_rows, n_states), deadline_range
    )
    draws.draw(gen)
    rows = list(zip(draws.row.tolist()))
    for i, sample in draws.var_rows.items():
        rows[i] = sample
    kind_of = draws.kinds
    return list(
        map(
            PricingRequest, range(n_requests), kind_of, times.tolist(),
            (times + draws.relative_deadline).tolist(), rows,
            np.where(kinds == "quote", draws.option, None).tolist(),
            map(KIND_PRIORITY.__getitem__, kind_of),
        )
    )


class _PayloadDraws:
    """The payload draws of one request trace, made in trace order.

    A request draws its relative deadline ``uniform(lo, hi)``, then its
    rows (a VaR's ``choice(n_states, k, replace=False)``, any other
    request's ``integers(n_states)``), then a quote its contract
    ``integers(n_positions)``.  VaRs make those calls.  Each maximal run
    of other requests reads its raw words in one ``random_raw`` call and
    is decoded by the rules of the module docstring.  Where each of a
    run's draws lands on its words depends only on the kinds and on
    whether the run starts with a buffered half-word, so
    :meth:`_place` places every draw of the trace, for both starts, once.

    The results land in :attr:`relative_deadline`, :attr:`row` and
    :attr:`option` (one entry per request; a bound of 1 draws 0) and, for
    VaRs, :attr:`var_rows`.
    """

    def __init__(self, kinds, n_states, n_positions, k_var, deadline_range):
        n = len(kinds)
        self.kinds = kinds.tolist()
        self.n_states, self.n_positions, self.k_var = n_states, n_positions, k_var
        self.deadline_range = deadline_range
        self.relative_deadline = np.empty(n)
        self.row = np.zeros(n, dtype=np.int64)
        self.option = np.zeros(n, dtype=np.int64)
        self.var_rows: dict[int, tuple[int, ...]] = {}
        var = kinds == "var"
        cuts = [0, *(np.flatnonzero(var[1:] != var[:-1]) + 1).tolist(), n]
        #: ``(start, stop, run)`` per segment of the trace; ``run`` is the
        #: index of a run read from raw words, ``None`` for calls.
        self.segments: list[tuple[int, int, int | None]] = []
        raw = n_states < _HALF_WORD and n_positions < _HALF_WORD
        n_runs = 0
        for start, stop in zip(cuts, cuts[1:]):
            if var[start] or not raw:
                self.segments.append((start, stop, None))
            else:
                self.segments.append((start, stop, n_runs))
                n_runs += 1
        if n_runs:
            self._place(kinds, var)

    def _place(self, kinds, var) -> None:
        """Place each draw of the runs on their words, for a run that starts
        without (case 0) and with (case 1) a buffered half-word."""
        members = np.flatnonzero(~var)
        head = np.ones(len(members), dtype=bool)
        head[1:] = np.diff(members) > 1
        heads = np.flatnonzero(head)
        run_of = np.cumsum(head) - 1
        place = np.arange(len(members)) - heads[run_of]
        quote = kinds[members] == "quote"
        # Half-words in draw order: a request's row, then a quote's
        # contract (a bound of 1 draws none).
        contract = quote & (self.n_positions > 1)
        halves = int(self.n_states > 1) + contract
        owner = np.repeat(np.arange(len(members)), halves)
        last_of_owner = np.ones(len(owner), dtype=bool)
        last_of_owner[:-1] = owner[1:] != owner[:-1]
        self.is_contract = last_of_owner & contract[owner]
        cum = np.concatenate(([0], np.cumsum(halves)))
        run_first = cum[heads]
        run_halves = np.diff(np.append(run_first, cum[-1]))
        run_size = np.diff(np.append(heads, len(members)))
        # The half-words of its run before each request, and each
        # half-word's index in its run.
        before = cum[:-1] - run_first[run_of]
        index = np.arange(len(owner))
        nth = index - run_first[run_of[owner]]

        # A run starting in case c takes its first c half-words from the
        # buffer.  After that, half-words pair up on new words, low half
        # first; the words are read in draw order, a deadline's one each.
        # Per run and case: the words it reads, whether it leaves a
        # half-word buffered, and the word whose high half it leaves in
        # the buffer (-1: none read for a half-word).
        d_word, h_word, high = [], [], []
        self.n_words, self.end_buffered, self.end_word = [], [], []
        for case in (0, 1):
            fetched = np.maximum(before - case, 0)
            d_word.append(place + (fetched + 1) // 2)
            k = nth - case
            odd = k & 1
            word = place[owner[index - odd]] + 1 + (k >> 1)
            h_word.append(np.where(k < 0, 0, word))
            high.append(odd.astype(bool))
            self.n_words.append(
                (run_size + (np.maximum(run_halves - case, 0) + 1) // 2).tolist()
            )
            self.end_buffered.append(
                np.where(run_halves > 0, (run_halves - case) & 1, case).tolist()
            )
            last = np.append(h_word[-1], -1)[run_first + run_halves - 1]
            self.end_word.append(np.where(run_halves > case, last, -1).tolist())
        self.d_word, self.h_word, self.high = map(np.stack, (d_word, h_word, high))
        self.run_halves = run_halves.tolist()
        self.members, self.run_of = members, run_of
        self.opening = nth == 0
        self.half_run, self.half_member = run_of[owner], members[owner]
        bound = np.where(self.is_contract, self.n_positions, self.n_states)
        self.bound = bound.astype(np.uint64)
        self.threshold = _HALF_WORD % self.bound
        q_lo, q_hi = map(float, self.deadline_range["quote"])
        r_lo, r_hi = map(float, self.deadline_range["reval"])
        self.lo = np.where(quote, q_lo, r_lo)
        self.span = np.where(quote, q_hi - q_lo, r_hi - r_lo)

    def draw(self, gen: np.random.Generator) -> None:
        """Make every draw of the trace from ``gen``.

        A run that hits a Lemire redraw is drawn again through the calls,
        from the state it started in, and the trace after it is drawn
        anew.  A bound ``n`` redraws once in ``2**32 / (2**32 % n)``
        half-words: never for a power of two, under once in 4,000 below
        ``n = 2**20``, but about every other time just above ``2**31``,
        where each redrawn run costs another pass over the rest.
        """
        first = 0
        while True:
            drawn = []
            for s in range(first, len(self.segments)):
                start, stop, run = self.segments[s]
                if run is None:
                    self._call(gen, start, stop)
                else:
                    drawn.append((s, *self._read(gen.bit_generator, run)))
            at = self._decode(drawn)
            if at is None:
                return
            s, state, _ = drawn[at]
            gen.bit_generator.state = state
            self._call(gen, *self.segments[s][:2])
            first = s + 1

    def _call(self, gen, start: int, stop: int) -> None:
        """Draw requests ``start .. stop - 1`` one call at a time."""
        for i in range(start, stop):
            kind = self.kinds[i]
            self.relative_deadline[i] = gen.uniform(*self.deadline_range[kind])
            if kind == "var":
                self.var_rows[i] = tuple(
                    np.sort(
                        gen.choice(self.n_states, self.k_var, replace=False)
                    ).tolist()
                )
            else:
                self.row[i] = gen.integers(self.n_states)
                if kind == "quote":
                    self.option[i] = gen.integers(self.n_positions)

    def _read(self, bits, run: int):
        """Read run ``run``'s raw words and leave the half-word buffer as
        its draws would.  Returns the state it started in and the words."""
        state = bits.state
        case = state["has_uint32"]
        words = bits.random_raw(self.n_words[case][run])
        if self.run_halves[run]:
            end = bits.state
            last = self.end_word[case][run]
            end["has_uint32"] = self.end_buffered[case][run]
            end["uinteger"] = (
                int(words[last]) >> 32 if last >= 0 else state["uinteger"]
            )
            bits.state = end
        return state, words

    def _decode(self, drawn) -> int | None:
        """Decode the runs read from raw words in one pass, and store every
        run before the first one that hits a Lemire redraw.  Returns that
        run's place in ``drawn``, or ``None``."""
        if not drawn:
            return None
        runs = [self.segments[s][2] for s, _, _ in drawn]
        n_runs = len(self.run_halves)
        live = np.zeros(n_runs, dtype=bool)
        live[runs] = True
        case = np.zeros(n_runs, dtype=np.intp)
        case[runs] = [state["has_uint32"] for _, state, _ in drawn]
        spare = np.zeros(n_runs, dtype=np.uint64)
        spare[runs] = [state["uinteger"] for _, state, _ in drawn]
        sizes = [len(words) for _, _, words in drawn]
        base = np.zeros(n_runs, dtype=np.intp)
        base[runs] = np.cumsum(sizes) - sizes
        words = np.concatenate([words for _, _, words in drawn])

        req = np.flatnonzero(live[self.run_of])
        run = self.run_of[req]
        u = (words[base[run] + self.d_word[case[run], req]] >> 11) * 2.0**-53
        half = np.flatnonzero(live[self.half_run])
        half_run = self.half_run[half]
        half_case = case[half_run]
        w = words[base[half_run] + self.h_word[half_case, half]]
        h = np.where(self.high[half_case, half], w >> 32, w & _LOW_HALF)
        h = np.where((half_case == 1) & self.opening[half], spare[half_run], h)
        scaled = h * self.bound[half]
        redrawn = half_run[(scaled & _LOW_HALF) < self.threshold[half]]
        stop = redrawn[0] if redrawn.size else n_runs

        keep = req[run < stop]
        self.relative_deadline[self.members[keep]] = (
            self.lo[keep] + self.span[keep] * u[run < stop]
        )
        kept = half_run < stop
        value = (scaled >> 32)[kept]
        target = self.half_member[half[kept]]
        contract = self.is_contract[half[kept]]
        self.row[target[~contract]] = value[~contract]
        self.option[target[contract]] = value[contract]
        return None if stop == n_runs else runs.index(stop)


def make_risk_refresh_stream(
    n_refreshes: int,
    *,
    period_s: float,
    n_states: int,
    var_rows: int = 16,
    start_s: float | None = None,
    deadline_fraction: float = 0.8,
    request_id_base: int = 0,
    seed: int = 17,
) -> list[PricingRequest]:
    """A periodic stream of VaR-refresh requests.

    The risk desk's heartbeat on a shared cluster: one ``var`` request
    every ``period_s``, each re-measuring VaR over a fresh sample of
    market-tape rows.  A refresh is stale once its successor lands, so
    its deadline is a fraction of the period — contrast the per-request
    uniform deadlines of :func:`make_request_stream`.

    Merge the stream with a quote trace (ids offset via
    ``request_id_base``) and replay both through one
    :class:`~repro.serving.engine.QuoteServer` to study how periodic
    batch work rides alongside latency-sensitive traffic — the
    ``repro-cds simulate`` scenario.

    Parameters
    ----------
    n_refreshes:
        Stream length.
    period_s:
        Seconds between refreshes.
    n_states:
        Market-tape length rows are sampled from.
    var_rows:
        Market states per refresh (capped at the tape length).
    start_s:
        First refresh instant (default: one period in).
    deadline_fraction:
        Relative deadline as a fraction of the period, in ``(0, 1]``.
    request_id_base:
        Id of the first refresh (offset past the quote trace when
        merging streams — ids must be unique within one replay).
    seed:
        Deterministic seed for the row samples.

    Returns
    -------
    list[PricingRequest]
        Refreshes in arrival order, ids ``request_id_base ..
        request_id_base + n_refreshes - 1``.
    """
    check_count(n_refreshes, "n_refreshes")
    check_positive_finite(period_s, "period_s")
    check_count(n_states, "n_states")
    check_count(var_rows, "var_rows")
    check_range(deadline_fraction, "deadline_fraction", "(0, 1]")
    start = start_s if start_s is not None else period_s
    check_non_negative_finite(start, "start_s")
    gen = np.random.default_rng(seed)
    k = min(var_rows, n_states)
    relative_deadline = deadline_fraction * period_s
    requests: list[PricingRequest] = []
    for i in range(n_refreshes):
        t = start + i * period_s
        rows = tuple(
            int(r) for r in np.sort(gen.choice(n_states, k, replace=False))
        )
        requests.append(
            PricingRequest(
                request_id=request_id_base + i,
                kind="var",
                arrival_s=t,
                deadline_s=t + relative_deadline,
                rows=rows,
                option_index=None,
                priority=KIND_PRIORITY["var"],
            )
        )
    return requests
