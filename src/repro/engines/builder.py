"""Dataflow network construction, timing-only replay and resource estimation.

:func:`build_dataflow_network` wires the stage kernels of
:mod:`repro.engines.stages` into a :class:`~repro.dataflow.engine.Simulator`
— the programmatic form of paper Fig. 2 (and, with ``replication > 1``, of
Fig. 3's round-robin clusters).  The same builder serves the per-option
restart engine (one option index) and the free-running engines (all
indices).

:func:`time_dataflow_network` gives the cycle counts of that network
without computing a value.  The engine is a fixed stage network whose
timing depends on the payment schedules, the knot grids and the engine
configuration, never on rate values, so the same builder records each
process as a flat program of read, write and delay steps and the programs
are replayed under the simulator's own scheduling rules.  Makespan and
every process finish time equal ``Simulator.run()``'s exactly.

:func:`engine_resources` estimates the fabric cost of one engine instance.
Per-stage operator sums follow the HLS op table; the per-engine
``_INFRASTRUCTURE`` constant covers what op-level sums cannot see (AXI/HBM
interface adapters, dataflow FIFOs, control FSMs, routing margin) and is
sized so that the vectorised engine reproduces the paper's observed fit of
**five** engines on the U280 — the op-level sum alone is a lower bound that
would misleadingly suggest ten or more.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.dataflow.engine import Simulator
from repro.dataflow.stream import Stream
from repro.engines.base import EngineWorkload
from repro.engines.stages import GRID_LATENCY, StageModels, port_contention_factor
from repro.errors import DeadlockError, ValidationError
from repro.hls.ops import op
from repro.hls.resources import ResourceUsage
from repro.workloads.scenarios import PaperScenario

__all__ = [
    "build_dataflow_network",
    "time_dataflow_network",
    "engine_resources",
    "NetworkHandles",
    "NetworkTiming",
]


@dataclass
class NetworkHandles:
    """Handles into a built network the caller needs afterwards."""

    results_sink: dict[int, float]
    result_stream: Stream


def build_dataflow_network(
    sim: Simulator,
    wl: EngineWorkload,
    indices: list[int],
    models: StageModels,
    *,
    stream_depth: int = 4,
    replication: int = 1,
    uram_ports: int = 2,
) -> NetworkHandles:
    """Populate ``sim`` with the full CDS dataflow network.

    This function is the one definition of the network's streams (names,
    depths, order) and processes (names, order, connections):
    :func:`time_dataflow_network` builds through it too.

    Parameters
    ----------
    sim:
        Fresh simulator to build into (or the timing replay's recorder).
    wl:
        Workload (options, schedules, curves).
    indices:
        Option indices this invocation processes (``[i]`` for per-option
        restart, ``range(n)`` for free-running).
    models:
        Stage timing models (or their step-program twin on the timing
        path).
    stream_depth:
        FIFO depth for per-time-point streams.
    replication:
        Replica count for the hazard and interpolation stages (1 = Fig. 2,
        >1 = Fig. 3).
    uram_ports:
        Read ports of the URAM holding each rate table (shared by
        replicas).
    """
    if replication < 1:
        raise ValidationError(f"replication must be >= 1, got {replication}")
    d = stream_depth
    n_opts = len(indices)

    # Streams ----------------------------------------------------------
    tg_hz = sim.stream("tg->hazard", depth=d)
    tg_in = sim.stream("tg->interp", depth=d)
    tg_par = sim.stream("tg->combine.params", depth=max(2, n_opts), per_option=True)
    hz_dp = sim.stream("hazard->defprob", depth=d)
    dp_tee = sim.stream("defprob->teeS", depth=d)
    in_dc = sim.stream("interp->discount", depth=d)
    dc_tee = sim.stream("discount->teeD", depth=d)
    s_pay = sim.stream("teeS->payment", depth=d)
    s_poff = sim.stream("teeS->payoff", depth=d)
    s_acc = sim.stream("teeS->accrual", depth=d)
    d_pay = sim.stream("teeD->payment", depth=d)
    d_poff = sim.stream("teeD->payoff", depth=d)
    d_acc = sim.stream("teeD->accrual", depth=d)
    leg_pay = sim.stream("payment->accum", depth=d)
    leg_poff = sim.stream("payoff->accum", depth=d)
    leg_acc = sim.stream("accrual->accum", depth=d)
    c_pay = sim.stream("accum.payment->combine", depth=2, per_option=True)
    c_poff = sim.stream("accum.payoff->combine", depth=2, per_option=True)
    c_acc = sim.stream("accum.accrual->combine", depth=2, per_option=True)
    results = sim.stream("combine->drain", depth=max(2, n_opts), per_option=True)

    # Front of the graph.  Every process pre-declares its stream
    # connections so the topology (paper Figs. 2/3) is complete before the
    # network ever runs.
    sim.process(
        "timegrid",
        models.timegrid(wl, indices, tg_hz, tg_in, tg_par),
        writes=(tg_hz, tg_in, tg_par),
    )

    # Hazard / interpolation paths (replicated or not) -------------------
    if replication == 1:
        sim.process(
            "hazard_acc",
            models.hazard_accumulate(wl, indices, tg_hz, hz_dp),
            group="hazard",
            reads=(tg_hz,),
            writes=(hz_dp,),
        )
        sim.process(
            "interp",
            models.interpolate(wl, indices, tg_in, in_dc),
            group="interp",
            reads=(tg_in,),
            writes=(in_dc,),
        )
    else:
        factor = port_contention_factor(replication, uram_ports)
        hz_ins = tuple(
            sim.stream(f"rr->hazard[{k}]", depth=d) for k in range(replication)
        )
        hz_outs = tuple(
            sim.stream(f"hazard[{k}]->rr", depth=d) for k in range(replication)
        )
        sim.process(
            "hazard_rr_sched",
            models.rr_distribute(wl, indices, tg_hz, hz_ins),
            reads=(tg_hz,),
            writes=hz_ins,
        )
        for k in range(replication):
            sim.process(
                f"hazard_acc[{k}]",
                models.hazard_accumulate(
                    wl,
                    indices,
                    hz_ins[k],
                    hz_outs[k],
                    stride=replication,
                    offset=k,
                    port_factor=factor,
                ),
                group="hazard",
                reads=(hz_ins[k],),
                writes=(hz_outs[k],),
            )
        sim.process(
            "hazard_rr_collect",
            models.rr_collect(wl, indices, hz_outs, hz_dp),
            reads=hz_outs,
            writes=(hz_dp,),
        )

        in_ins = tuple(
            sim.stream(f"rr->interp[{k}]", depth=d) for k in range(replication)
        )
        in_outs = tuple(
            sim.stream(f"interp[{k}]->rr", depth=d) for k in range(replication)
        )
        sim.process(
            "interp_rr_sched",
            models.rr_distribute(wl, indices, tg_in, in_ins),
            reads=(tg_in,),
            writes=in_ins,
        )
        for k in range(replication):
            sim.process(
                f"interp[{k}]",
                models.interpolate(
                    wl,
                    indices,
                    in_ins[k],
                    in_outs[k],
                    stride=replication,
                    offset=k,
                    port_factor=factor,
                ),
                group="interp",
                reads=(in_ins[k],),
                writes=(in_outs[k],),
            )
        sim.process(
            "interp_rr_collect",
            models.rr_collect(wl, indices, in_outs, in_dc),
            reads=in_outs,
            writes=(in_dc,),
        )

    # Remainder of the graph ---------------------------------------------
    sim.process(
        "defprob",
        models.default_probability(wl, indices, hz_dp, dp_tee),
        reads=(hz_dp,),
        writes=(dp_tee,),
    )
    sim.process(
        "discount",
        models.discount(wl, indices, in_dc, dc_tee),
        reads=(in_dc,),
        writes=(dc_tee,),
    )
    sim.process(
        "tee_S",
        models.tee(wl, indices, dp_tee, (s_pay, s_poff, s_acc)),
        reads=(dp_tee,),
        writes=(s_pay, s_poff, s_acc),
    )
    sim.process(
        "tee_D",
        models.tee(wl, indices, dc_tee, (d_pay, d_poff, d_acc)),
        reads=(dc_tee,),
        writes=(d_pay, d_poff, d_acc),
    )
    sim.process(
        "payment",
        models.payment(wl, indices, s_pay, d_pay, leg_pay),
        reads=(s_pay, d_pay),
        writes=(leg_pay,),
    )
    sim.process(
        "payoff",
        models.payoff(wl, indices, s_poff, d_poff, leg_poff),
        reads=(s_poff, d_poff),
        writes=(leg_poff,),
    )
    sim.process(
        "accrual",
        models.accrual(wl, indices, s_acc, d_acc, leg_acc),
        reads=(s_acc, d_acc),
        writes=(leg_acc,),
    )
    sim.process(
        "accum_payment",
        models.leg_accumulator(wl, indices, leg_pay, c_pay),
        reads=(leg_pay,),
        writes=(c_pay,),
    )
    sim.process(
        "accum_payoff",
        models.leg_accumulator(wl, indices, leg_poff, c_poff),
        reads=(leg_poff,),
        writes=(c_poff,),
    )
    sim.process(
        "accum_accrual",
        models.leg_accumulator(wl, indices, leg_acc, c_acc),
        reads=(leg_acc,),
        writes=(c_acc,),
    )
    sim.process(
        "combine",
        models.combine(wl, indices, tg_par, c_pay, c_poff, c_acc, results),
        reads=(tg_par, c_pay, c_poff, c_acc),
        writes=(results,),
    )
    sink: dict[int, float] = {}
    sim.process(
        "drain",
        models.result_drain(n_opts, results, sink),
        reads=(results,),
    )
    return NetworkHandles(results_sink=sink, result_stream=results)


# ======================================================================
# Timing-only replay
# ======================================================================

#: Step kinds of a compiled process program.
_READ, _WRITE, _DELAY = 0, 1, 2


@dataclass(frozen=True)
class NetworkTiming:
    """Cycle counts of one network run, as :meth:`Simulator.run` reports them.

    Attributes
    ----------
    makespan_cycles:
        Completion time of the slowest process (cycles).
    process_times:
        Finish time per process name, in the network's process order.
    """

    makespan_cycles: float
    process_times: dict[str, float]


def time_dataflow_network(
    wl: EngineWorkload,
    indices: list[int],
    models: StageModels,
    *,
    stream_depth: int = 4,
    replication: int = 1,
    uram_ports: int = 2,
) -> NetworkTiming:
    """Cycle counts of :func:`build_dataflow_network`'s network, without values.

    Takes the builder's arguments (less ``sim``) and returns what
    ``Simulator.run()`` would report for makespan and process finish
    times, exactly (``==``).  No stage value is computed, so no check on
    values runs either: the combine stage's annuity check is the caller's
    to keep (see :meth:`~repro.engines.multi_engine.MultiEngineSystem.
    kernel_cycles`).
    """
    net = _TimingNetwork()
    build_dataflow_network(
        net,
        wl,
        indices,
        _StagePrograms(models),
        stream_depth=stream_depth,
        replication=replication,
        uram_ports=uram_ports,
    )
    return net.replay()


class _TimingNetwork:
    """The ``sim`` a timing-only :func:`build_dataflow_network` call fills.

    A stream is an index into per-stream FIFO state; a process is a flat
    program of steps, each one command of its kernel with the ``Delay``
    that follows it fused in:

    * ``(_READ, stream, cycles)``: pop a token, then advance ``cycles``;
    * ``(_WRITE, stream, latency, cycles)``: push a token readable
      ``latency`` cycles after issue, then advance ``cycles``;
    * ``(_DELAY, cycles)``.
    """

    def __init__(self) -> None:
        self.depths: list[int] = []
        self.readers: list[int] = []
        self.writers: list[int] = []
        self.names: list[str] = []
        self.programs: list[list[tuple]] = []

    def stream(self, name: str, depth: int = 2, *, per_option: bool = False) -> int:
        self.depths.append(depth)
        self.readers.append(-1)
        self.writers.append(-1)
        return len(self.depths) - 1

    def process(
        self,
        name: str,
        program: list[tuple],
        *,
        group: str | None = None,
        reads: tuple[int, ...] = (),
        writes: tuple[int, ...] = (),
    ) -> None:
        for s in reads:
            self.readers[s] = len(self.programs)
        for s in writes:
            self.writers[s] = len(self.programs)
        self.names.append(name)
        self.programs.append(program)

    def replay(self) -> NetworkTiming:
        """Run the programs with timestamps and no values, under the
        scheduling rules of :mod:`repro.dataflow.engine`: its ready-queue
        order, its reads and writes, and release-once back-pressure.
        Every delay is added on its own, in program order, so the float
        sums are the simulator's.
        """
        programs, depths = self.programs, self.depths
        readers, writers = self.readers, self.writers
        fifos: list[deque[float]] = [deque() for _ in depths]
        read_blocked = [False] * len(depths)
        write_blocked = [False] * len(depths)
        times = [0.0] * len(programs)
        pcs = [0] * len(programs)
        # Issue time of the write each process is blocked on, if any.
        issued: list[float | None] = [None] * len(programs)
        ready = deque(range(len(programs)))
        append = ready.append
        while ready:
            p = ready.popleft()
            prog = programs[p]
            i, t = pcs[p], times[p]
            issue = issued[p]
            if issue is not None:
                # The pop that released p freed a slot, and only p writes
                # to the stream, so the retried write completes.
                issued[p] = None
                _, s, latency, cycles = prog[i]
                token = issue + latency
                fifos[s].append(token if token > t else t)
                if read_blocked[s]:
                    read_blocked[s] = False
                    append(readers[s])
                t += cycles
                i += 1
            end = len(prog)
            while i < end:
                step = prog[i]
                kind = step[0]
                if kind == _READ:
                    s = step[1]
                    fifo = fifos[s]
                    if not fifo:
                        read_blocked[s] = True
                        break
                    token = fifo.popleft()
                    if token > t:
                        t = token
                    if write_blocked[s]:
                        write_blocked[s] = False
                        w = writers[s]
                        if t > times[w]:
                            times[w] = t
                        append(w)
                    t += step[2]
                elif kind == _WRITE:
                    s = step[1]
                    fifo = fifos[s]
                    if len(fifo) >= depths[s]:
                        write_blocked[s] = True
                        issued[p] = t
                        break
                    fifo.append(t + step[2])
                    if read_blocked[s]:
                        read_blocked[s] = False
                        append(readers[s])
                    t += step[3]
                else:
                    t += step[1]
                i += 1
            pcs[p], times[p] = i, t

        stuck = [n for n, i, prog in zip(self.names, pcs, programs) if i < len(prog)]
        if stuck:
            raise DeadlockError(
                f"timing replay deadlocked with {len(stuck)} blocked "
                f"process(es): {', '.join(stuck)}"
            )
        return NetworkTiming(
            makespan_cycles=max(times, default=0.0),
            process_times=dict(zip(self.names, times)),
        )


def _n_points(wl: EngineWorkload, indices: list[int]) -> int:
    """Time points of ``indices``: the tokens per per-point stream."""
    return sum(len(wl.schedules[oi]) for oi in indices)


def _point_times(wl: EngineWorkload, indices: list[int]) -> np.ndarray:
    """Every time point of ``indices``, in the order the timegrid emits them."""
    return np.concatenate([wl.schedules[oi].times for oi in indices])


def _per_key(fn: Callable[[int], float], keys: np.ndarray) -> np.ndarray:
    """``fn(k)`` for each integer in ``keys``, one call per distinct key."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array([fn(int(k)) for k in distinct], dtype=float)[inverse]


def _interleave(first: list[tuple], second: list[tuple]) -> list[tuple]:
    """``[first[0], second[0], first[1], second[1], ...]``."""
    out: list[tuple] = [()] * (2 * len(first))
    out[0::2] = first
    out[1::2] = second
    return out


def _cyclic(pattern: list[tuple], count: int) -> list[tuple]:
    """``count`` tokens of a program cycling through ``pattern``, two
    steps per token (the round-robin scheduler and collector)."""
    tokens = len(pattern) // 2
    return pattern * (count // tokens) + pattern[: 2 * (count % tokens)]


@dataclass(frozen=True)
class _StagePrograms:
    """Timing-only twin of :class:`StageModels`' stage kernels.

    Each method takes its kernel's arguments, with streams as
    :class:`_TimingNetwork` indices, and returns the steps that kernel
    yields.  Only schedule lengths and times are read.  Per-token delays
    come from one vectorised knot-grid lookup per stage, through the
    kernels' own cycle expressions, so each is the float the kernel
    computes.
    """

    models: StageModels

    def timegrid(self, wl, indices, out_haz, out_int, out_params):
        params = (_WRITE, out_params, GRID_LATENCY, 0.0)
        point = [
            (_WRITE, out_haz, GRID_LATENCY, 0.0),
            (_WRITE, out_int, GRID_LATENCY, 1.0),
        ]
        program: list[tuple] = []
        for oi in indices:
            program.append(params)
            program += point * len(wl.schedules[oi])
        return program

    def hazard_accumulate(
        self, wl, indices, inp, out, *, stride=1, offset=0, port_factor=1.0
    ):
        t = _point_times(wl, indices)[offset::stride]
        # HazardCurve.accumulation_length over the array.
        grid = wl.hazard_curve
        lengths = np.searchsorted(grid.times, t, side="right") + 1
        lengths = np.minimum(lengths, len(grid))
        lengths[t <= 0.0] = 0
        cycles = _per_key(self.models.accumulator.cycles, lengths) * port_factor
        reads = [(_READ, inp, c) for c in cycles.tolist()]
        write = (_WRITE, out, self.models.add_latency, 0.0)
        return _interleave(reads, [write] * len(reads))

    def interpolate(
        self, wl, indices, inp, out, *, stride=1, offset=0, port_factor=1.0
    ):
        t = _point_times(wl, indices)[offset::stride]
        # Curve.locate over the array.
        grid = wl.yield_curve
        located = np.searchsorted(grid.times, t, side="left")
        located = np.minimum(located, len(grid) - 1)
        interp = self.models.interpolator
        arith = interp.arithmetic_latency
        scan = _per_key(interp.evaluation_cycles, located)
        reads = [(_READ, inp, c) for c in ((scan - arith) * port_factor).tolist()]
        return _interleave(reads, [(_WRITE, out, arith, 0.0)] * len(reads))

    def default_probability(self, wl, indices, inp, out):
        m = self.models
        return self._per_point(wl, indices, inp, out, m.exp_latency + m.add_latency)

    def discount(self, wl, indices, inp, out):
        m = self.models
        return self._per_point(wl, indices, inp, out, m.mul_latency + m.exp_latency)

    def tee(self, wl, indices, inp, outs):
        point = [(_READ, inp, 0.0)]
        point += [(_WRITE, o, 0.0, 0.0) for o in outs[:-1]]
        point.append((_WRITE, outs[-1], 0.0, 1.0))
        return point * _n_points(wl, indices)

    def payment(self, wl, indices, in_s, in_d, out):
        return self._leg_term(wl, indices, in_s, in_d, out, 2 * self.models.mul_latency)

    def payoff(self, wl, indices, in_s, in_d, out):
        return self._leg_term(wl, indices, in_s, in_d, out, self.models.mul_latency)

    def accrual(self, wl, indices, in_s, in_d, out):
        return self._leg_term(wl, indices, in_s, in_d, out, 2 * self.models.mul_latency)

    def leg_accumulator(self, wl, indices, inp, out):
        acc = self.models.accumulator
        accept = (_READ, inp, acc.ii)
        write = (_WRITE, out, self.models.add_latency, 0.0)
        program: list[tuple] = []
        for oi in indices:
            n = len(wl.schedules[oi])
            program += [accept] * n
            program += ((_DELAY, max(0.0, acc.cycles(n) - n * acc.ii)), write)
        return program

    def combine(self, wl, indices, in_params, in_pay, in_poff, in_acc, out):
        m = self.models
        option = [(_READ, s, 0.0) for s in (in_params, in_pay, in_poff, in_acc)]
        option.append((_WRITE, out, m.div_latency + m.mul_latency, 2.0))
        return option * len(indices)

    def result_drain(self, count, inp, sink):
        return [(_READ, inp, 1.0)] * count

    def rr_distribute(self, wl, indices, inp, outs):
        read = (_READ, inp, 0.0)
        pattern = [step for o in outs for step in (read, (_WRITE, o, 0.0, 1.0))]
        return _cyclic(pattern, _n_points(wl, indices))

    def rr_collect(self, wl, indices, ins, out):
        write = (_WRITE, out, 0.0, 1.0)
        pattern = [step for s in ins for step in ((_READ, s, 0.0), write)]
        return _cyclic(pattern, _n_points(wl, indices))

    def _per_point(self, wl, indices, inp, out, latency):
        """Read, write after ``latency``, tick: one token per time point."""
        point = [(_READ, inp, 0.0), (_WRITE, out, latency, 1.0)]
        return point * _n_points(wl, indices)

    def _leg_term(self, wl, indices, in_s, in_d, out, latency):
        """Read both inputs, write after ``latency``, tick."""
        point = [
            (_READ, in_s, 0.0),
            (_READ, in_d, 0.0),
            (_WRITE, out, latency, 1.0),
        ]
        return point * _n_points(wl, indices)


# ======================================================================
# Resource estimation
# ======================================================================

#: Per-engine infrastructure beyond the op-level stage sums: AXI/HBM
#: interface adapters, DATAFLOW FIFO fabric, control FSMs and the routing
#: margin of a timing-closed build.  Sized so the vectorised engine's total
#: (~179 k LUT) reproduces the paper's observed capacity of five engines on
#: the U280 under its 90% routable ceiling (a sixth exceeds the LUT budget).
_INFRASTRUCTURE = ResourceUsage(lut=80_000, ff=110_000, bram36=32, uram=0, dsp=12)


def _stage_sum(names: list[str]) -> ResourceUsage:
    total = ResourceUsage()
    for n in names:
        spec = op(n)
        total = total + ResourceUsage(lut=spec.lut, ff=spec.ff, dsp=spec.dsp)
    return total


def engine_resources(
    scenario: PaperScenario,
    *,
    replication: int = 1,
    interleaved: bool = True,
) -> ResourceUsage:
    """Estimated fabric resources of one engine instance.

    Composition: replicated hazard accumulators (one partial-sum adder per
    Listing-1 lane when interleaved, one otherwise), replicated
    interpolators, the fixed stage set, per-table URAM copies (one copy
    serves ``effective_uram_ports`` replicas), and the per-engine
    infrastructure constant.  ``scenario.precision`` selects the operator
    family; single-precision operators are markedly cheaper, which is how
    the reduced-precision study fits more engines per card.
    """
    if replication < 1:
        raise ValidationError(f"replication must be >= 1, got {replication}")

    p = "d" if scenario.precision == "double" else "s"
    lanes = op(p + "add").latency
    hazard_unit = _stage_sum([p + "add"] * (lanes if interleaved else 1))
    interp_unit = _stage_sum(
        [p + "div", p + "mul", p + "sub", p + "sub", p + "add", p + "cmp"]
    )
    fixed = (
        _stage_sum([p + "exp", p + "sub"])  # defprob
        + _stage_sum([p + "exp", p + "mul"])  # discount
        + _stage_sum([p + "mul", p + "mul"])  # payment
        + _stage_sum([p + "mul"])  # payoff
        + _stage_sum([p + "mul", p + "mul"])  # accrual
        + _stage_sum([p + "add"] * (3 * lanes))  # interleaved leg accumulators
        + _stage_sum([p + "div", p + "mul", p + "sub"])  # combine
    )
    entry_bytes = 16 if scenario.precision == "double" else 8
    table_bytes = scenario.n_rates * entry_bytes  # (time, value) per entry
    copies = -(-replication // scenario.effective_uram_ports)
    tables = ResourceUsage.for_table_bytes(table_bytes, in_uram=True).scale(2 * copies)

    total = (
        hazard_unit.scale(replication)
        + interp_unit.scale(replication)
        + fixed
        + tables
        + _INFRASTRUCTURE
    )
    return total
