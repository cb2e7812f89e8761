"""Dataflow stage kernels (the black boxes of paper Fig. 2).

Each kernel is a generator for the discrete-event simulator: it computes the
*functional* value of its stage with ordinary floating-point arithmetic
(bit-compatible with the reference pricer) while consuming *cycles*
according to the HLS timing models.  The same kernels serve the
per-option-restart engine (passed a single option index) and the
free-running engines (passed the whole batch), exactly as the paper's HLS
functions were made "aware of the overall number of options".

Stage inventory and the streams between them::

    timegrid --(t,dt)--> hazard_acc --(Lambda,dt)--> defprob --(S,dS,dt)--> tee_S
    timegrid --(t)-----> interp -----(t,r)---------> discount --(D)-------> tee_D
    tee_S/tee_D --> payment --> acc_payment \\
    tee_S/tee_D --> payoff  --> acc_payoff   >--> combine --> results
    tee_S/tee_D --> accrual --> acc_accrual /

Red (per-option) tokens: option parameters into ``combine`` and the three
leg sums; blue (per-time-point) tokens: everything else.

Each kernel builds its ``Read`` and constant ``Delay`` commands once and
yields them per token; only ``Write``, which the scheduler stamps with
its issue time, is built per token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.validation import check_count
from repro.dataflow.process import Delay, Kernel, Read, Write
from repro.dataflow.stream import Stream
from repro.engines.base import EngineWorkload
from repro.errors import ValidationError
from repro.hls.accumulator import AccumulatorModel
from repro.hls.interpolation import InterpolatorModel
from repro.hls.ops import op
from repro.workloads.scenarios import PaperScenario

__all__ = ["StageModels", "port_contention_factor"]

#: Latency of the time-grid address arithmetic.
GRID_LATENCY = 4.0


def port_contention_factor(replicas: int, ports: int) -> float:
    """Slow-down of each replica's table scan from shared URAM ports.

    ``replicas`` units round-robin over a table whose memory serves
    ``ports`` reads per cycle; past ``ports`` concurrent scanners each scan
    is stretched by ``replicas / ports``.  This is the mechanism that caps
    the paper's 6-fold replication at the observed ~2x gain with dual-ported
    URAM.
    """
    check_count(replicas, "replicas")
    check_count(ports, "ports")
    return max(1.0, replicas / ports)


@dataclass(frozen=True)
class StageModels:
    """Bundle of timing models shared by a family of stage kernels.

    Parameters
    ----------
    accumulator:
        Hazard/leg accumulation model (naive II=7 or Listing-1 II=1).
    interpolator:
        Rate-table interpolation unit model.
    exp_latency / mul_latency / div_latency / add_latency:
        Operator latencies from the HLS table.
    """

    accumulator: AccumulatorModel
    interpolator: InterpolatorModel
    exp_latency: float
    mul_latency: float
    div_latency: float
    add_latency: float

    @classmethod
    def for_scenario(
        cls, scenario: PaperScenario, *, interleaved: bool
    ) -> "StageModels":
        """Models for the given scenario; ``interleaved`` picks Listing 1.

        ``scenario.precision`` selects the operator family: double-precision
        (the paper's engines) or single-precision (the reduced-precision
        study) — the latter shortens the adder latency, which both lowers
        the naive accumulation II and shrinks the Listing-1 lane count.
        """
        prefix = "d" if scenario.precision == "double" else "s"
        add = op(prefix + "add")
        return cls(
            accumulator=AccumulatorModel(
                interleaved=interleaved,
                lanes=add.latency,
                add_latency=add.latency,
            ),
            interpolator=InterpolatorModel(table_length=scenario.n_rates),
            exp_latency=float(op(prefix + "exp").latency),
            mul_latency=float(op(prefix + "mul").latency),
            div_latency=float(op(prefix + "div").latency),
            add_latency=float(add.latency),
        )

    # ==================================================================
    # Stage kernels
    # ==================================================================
    def timegrid(
        self,
        wl: EngineWorkload,
        indices: list[int],
        out_haz: Stream,
        out_int: Stream,
        out_params: Stream,
    ) -> Kernel:
        """Generate the distinct time points of each option (Fig. 1 step 1).

        Emits ``(t_i, dt_i)`` down the hazard path, ``t_i`` down the
        interpolation path and one ``(index, recovery)`` parameter token per
        option for the combiner.
        """
        tick = Delay(1)
        for oi in indices:
            sched = wl.schedules[oi]
            yield Write(
                out_params,
                (oi, wl.options[oi].recovery_rate),
                delay=GRID_LATENCY,
            )
            for t, dt in zip(sched.times, sched.accruals):
                yield Write(out_haz, (float(t), float(dt)), delay=GRID_LATENCY)
                yield Write(out_int, float(t), delay=GRID_LATENCY)
                yield tick

    def hazard_accumulate(
        self,
        wl: EngineWorkload,
        indices: list[int],
        inp: Stream,
        out: Stream,
        *,
        stride: int = 1,
        offset: int = 0,
        port_factor: float = 1.0,
    ) -> Kernel:
        """Accumulate the hazard table up to each time point.

        Consumes ``(t, dt)``; produces ``(Lambda(t), dt)``.  The per-point
        cycle cost is the accumulation model applied to the number of table
        entries at or before ``t`` — II=7 each for the naive loop, ~II=1
        with Listing 1 — stretched by ``port_factor`` when replicas share
        URAM ports.  ``stride``/``offset`` implement round-robin replication
        (this replica handles points ``offset, offset+stride, ...`` of each
        option, matching Fig. 3's cyclic scheduler).
        """
        hc = wl.hazard_curve
        read = Read(inp)
        counter = 0  # global across options: the cyclic scheduler of Fig. 3
        for oi in indices:
            n_points = len(wl.schedules[oi])
            for _ in range(n_points):
                mine = counter % stride == offset
                counter += 1
                if not mine:
                    continue
                t, dt = yield read
                n_entries = hc.accumulation_length(t)
                yield Delay(self.accumulator.cycles(n_entries) * port_factor)
                lam = hc.integrated(t)
                yield Write(out, (lam, dt), delay=self.add_latency)

    def default_probability(
        self,
        wl: EngineWorkload,
        indices: list[int],
        inp: Stream,
        out: Stream,
    ) -> Kernel:
        """Survival/default from cumulative hazard (Fig. 1 step 2).

        Consumes ``(Lambda, dt)``; produces ``(S, dS, dt)`` where
        ``S = exp(-Lambda)`` and ``dS = S_prev - S`` (the probability of
        defaulting inside the period).  Stateful in ``S_prev`` per option.
        """
        import numpy as np

        read, tick = Read(inp), Delay(1)
        for oi in indices:
            s_prev = 1.0
            for _ in range(len(wl.schedules[oi])):
                lam, dt = yield read
                s = float(np.exp(-lam))
                ds = s_prev - s
                s_prev = s
                yield Write(
                    out, (s, ds, dt), delay=self.exp_latency + self.add_latency
                )
                yield tick

    def interpolate(
        self,
        wl: EngineWorkload,
        indices: list[int],
        inp: Stream,
        out: Stream,
        *,
        stride: int = 1,
        offset: int = 0,
        port_factor: float = 1.0,
    ) -> Kernel:
        """Interpolate the interest-rate table at each time point.

        Consumes ``t``; produces ``(t, r(t))``.  The cycle cost is the
        fixed-bound table scan (see
        :class:`~repro.hls.interpolation.InterpolatorModel`), stretched by
        ``port_factor`` under replication.
        """
        yc = wl.yield_curve
        read = Read(inp)
        counter = 0  # global across options: the cyclic scheduler of Fig. 3
        for oi in indices:
            n_points = len(wl.schedules[oi])
            for _ in range(n_points):
                mine = counter % stride == offset
                counter += 1
                if not mine:
                    continue
                t = yield read
                scan = self.interpolator.evaluation_cycles(yc.locate(t))
                arith = self.interpolator.arithmetic_latency
                yield Delay((scan - arith) * port_factor)
                r = yc.interpolate(t)
                yield Write(out, (t, r), delay=arith)

    def discount(
        self,
        wl: EngineWorkload,
        indices: list[int],
        inp: Stream,
        out: Stream,
    ) -> Kernel:
        """Discount factor ``D = exp(-r * t)`` per time point."""
        import numpy as np

        read, tick = Read(inp), Delay(1)
        for oi in indices:
            for _ in range(len(wl.schedules[oi])):
                t, r = yield read
                d = float(np.exp(-r * t))
                yield Write(out, d, delay=self.mul_latency + self.exp_latency)
                yield tick

    def tee(
        self,
        wl: EngineWorkload,
        indices: list[int],
        inp: Stream,
        outs: tuple[Stream, ...],
    ) -> Kernel:
        """Duplicate each token to several consumers (II=1).

        HLS streams are single-consumer, so fan-out needs an explicit
        duplication function — same constraint as our simulator.
        """
        total = sum(len(wl.schedules[oi]) for oi in indices)
        read, tick = Read(inp), Delay(1)
        for _ in range(total):
            v = yield read
            for o in outs:
                yield Write(o, v)
            yield tick

    def payment(
        self,
        wl: EngineWorkload,
        indices: list[int],
        in_s: Stream,
        in_d: Stream,
        out: Stream,
    ) -> Kernel:
        """Premium-leg contribution ``D * S * dt`` per time point."""
        read_s, read_d, tick = Read(in_s), Read(in_d), Delay(1)
        for oi in indices:
            for _ in range(len(wl.schedules[oi])):
                s, _ds, dt = yield read_s
                d = yield read_d
                yield Write(out, d * s * dt, delay=2 * self.mul_latency)
                yield tick

    def payoff(
        self,
        wl: EngineWorkload,
        indices: list[int],
        in_s: Stream,
        in_d: Stream,
        out: Stream,
    ) -> Kernel:
        """Protection-leg contribution ``D * dS`` per time point
        (the loss-given-default factor is applied once in ``combine``)."""
        read_s, read_d, tick = Read(in_s), Read(in_d), Delay(1)
        for oi in indices:
            for _ in range(len(wl.schedules[oi])):
                _s, ds, _dt = yield read_s
                d = yield read_d
                yield Write(out, d * ds, delay=self.mul_latency)
                yield tick

    def accrual(
        self,
        wl: EngineWorkload,
        indices: list[int],
        in_s: Stream,
        in_d: Stream,
        out: Stream,
    ) -> Kernel:
        """Accrued-premium contribution ``D * dS * dt / 2`` per time point."""
        read_s, read_d, tick = Read(in_s), Read(in_d), Delay(1)
        for oi in indices:
            for _ in range(len(wl.schedules[oi])):
                _s, ds, dt = yield read_s
                d = yield read_d
                yield Write(out, d * ds * dt * 0.5, delay=2 * self.mul_latency)
                yield tick

    def leg_accumulator(
        self,
        wl: EngineWorkload,
        indices: list[int],
        inp: Stream,
        out: Stream,
    ) -> Kernel:
        """Sum the per-point contributions of one leg into a per-option PV.

        Left-to-right accumulation (matching the reference pricer's
        association); timing follows the accumulation model: the naive loop
        accepts one value per 7 cycles, Listing 1 one per cycle plus a tail
        reduction per option.
        """
        acc = self.accumulator
        read, accept = Read(inp), Delay(acc.ii)
        for oi in indices:
            n = len(wl.schedules[oi])
            total = 0.0
            for _ in range(n):
                v = yield read
                total += v
                yield accept
            tail = max(0.0, acc.cycles(n) - n * acc.ii)
            yield Delay(tail)
            yield Write(out, total, delay=self.add_latency)

    def combine(
        self,
        wl: EngineWorkload,
        indices: list[int],
        in_params: Stream,
        in_pay: Stream,
        in_poff: Stream,
        in_acc: Stream,
        out: Stream,
    ) -> Kernel:
        """Combine the legs into the option's spread (Fig. 1 final step).

        ``spread_bps = 10_000 * (payoff_raw * (1 - R)) / (payment + accrual)``
        — the exact operation order of the reference pricer, so results are
        bit-identical.
        """
        from repro.core.pricing import BASIS_POINTS

        read_params, read_pay = Read(in_params), Read(in_pay)
        read_poff, read_acc = Read(in_poff), Read(in_acc)
        settle = Delay(2)
        for _ in indices:
            oi, recovery = yield read_params
            pay = yield read_pay
            poff_raw = yield read_poff
            acc = yield read_acc
            protection = poff_raw * (1.0 - recovery)
            annuity = pay + acc
            if annuity <= 0.0 or not math.isfinite(annuity):
                raise ValidationError(
                    f"combine: non-positive annuity {annuity!r} for option {oi}"
                )
            spread = BASIS_POINTS * protection / annuity
            yield Write(
                out,
                (oi, spread),
                delay=self.div_latency + self.mul_latency,
            )
            yield settle

    def result_drain(
        self,
        count: int,
        inp: Stream,
        sink: dict[int, float],
    ) -> Kernel:
        """Collect ``(index, spread)`` results into ``sink``."""
        read, tick = Read(inp), Delay(1)
        for _ in range(count):
            oi, spread = yield read
            sink[int(oi)] = float(spread)
            yield tick

    # ==================================================================
    # Round-robin replication plumbing (Fig. 3)
    # ==================================================================
    def rr_distribute(
        self,
        wl: EngineWorkload,
        indices: list[int],
        inp: Stream,
        outs: tuple[Stream, ...],
    ) -> Kernel:
        """Cyclic scheduler: deal per-point tokens to replicas in order.

        The counter runs continuously across options so replica load stays
        balanced even when the per-option point count is not a multiple of
        the replica count.
        """
        k = len(outs)
        read, tick = Read(inp), Delay(1)
        counter = 0
        for oi in indices:
            for _ in range(len(wl.schedules[oi])):
                v = yield read
                yield Write(outs[counter % k], v)
                counter += 1
                yield tick

    def rr_collect(
        self,
        wl: EngineWorkload,
        indices: list[int],
        ins: tuple[Stream, ...],
        out: Stream,
    ) -> Kernel:
        """Cyclic collector: gather replica outputs preserving point order."""
        reads = tuple(Read(s) for s in ins)
        k = len(reads)
        tick = Delay(1)
        counter = 0
        for oi in indices:
            for _ in range(len(wl.schedules[oi])):
                v = yield reads[counter % k]
                counter += 1
                yield Write(out, v)
                yield tick
