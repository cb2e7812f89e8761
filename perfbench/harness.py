"""Repetition loop, output checks and metric roll-up for one workload.

A repetition rebuilds everything from the seed: generate the inputs,
build the system, make the one timed call.  Nothing is warmed up
outside a repetition, so any cache a one-shot user would fill is paid
inside ``setup_s`` or the timed call.  Untraced repetitions give the
end-to-end metrics; traced ones (run alternately with untraced ones in
trace mode) give the per-layer split.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.telemetry import Telemetry

from layers import ROOT, LayerTracer
from workloads import BENCH_GATEWAY_SEED

#: Fewest repetitions a run makes, however long each takes.
MIN_REPS = 3

#: End-to-end metrics: name -> (unit, description).
END_TO_END = {
    "setup_s": ("s", "seed to ready system: input generation + construction"),
    "host_us_per_op": ("us", "host wall time of the timed call per op"),
    "peak_rss_mb": ("MB", "peak resident memory of the process"),
    "sim_goodput_rps": ("1/s", "simulated in-deadline completions per second"),
    "sim_p50_ms": ("ms", "simulated median latency"),
    "sim_p99_ms": ("ms", "simulated 99th-percentile latency"),
    "sim_shed_rate": ("frac", "simulated shed fraction of offered ops"),
    "sim_repricings_per_s": ("1/s", "simulated (state, contract) repricings per second"),
    "sim_repricings_per_w": ("1/J", "simulated repricings per second per card watt"),
    "failed_frac": ("frac", "(shed + failed + check mismatches) / ops attempted"),
}

#: Per-layer metric units (every ``_s`` layer time is self time).
LAYER_UNITS = {
    "workloads.gen_s": "s",
    "setup.construct_self_s": "s",
    "api.calibrate_calls": "count",
    "api.calibrate_s": "s",
    "cluster.node_price_calls": "count",
    "cluster.node_price_s": "s",
    "core.kernel_calls": "count",
    "core.kernel_cells": "count",
    "core.kernel_s": "s",
    "core.kernel_us_per_call": "us",
    "core.kernel_ns_per_cell": "ns",
    "api.quote_rows_self_s": "s",
    "api.rig_dispatch_calls": "count",
    "api.rig_dispatch_s": "s",
    "serving.coalescer_s": "s",
    "serving.serve_self_s": "s",
    "gateway.admit_s": "s",
    "gateway.route_s": "s",
    "gateway.cache_s": "s",
    "gateway.self_s": "s",
    "sim.events": "count",
    "sim.loop_self_s": "s",
    "sim.host_us_per_event": "us",
    "risk.grid_timing_s": "s",
    "risk.revalue_self_s": "s",
    "serving.dispatches": "count",
    "serving.mean_batch_requests": "count",
    "gateway.cache_hit_rate": "frac",
    "gateway.cache_dedup_rate": "frac",
    "gateway.cache_invalidations": "count",
    "gateway.shed_quota": "count",
    "risk.dispatches": "count",
    "serving.coalesce_wait_ms_p99": "ms",
    "serving.card_queue_wait_ms_p99": "ms",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}

#: Simulated layer counts every workload reports (0 where a layer is absent).
SIM_COUNT_KEYS = (
    "serving.dispatches",
    "serving.mean_batch_requests",
    "gateway.cache_hit_rate",
    "gateway.cache_dedup_rate",
    "gateway.cache_invalidations",
    "gateway.shed_quota",
    "risk.dispatches",
)


@dataclass
class Rep:
    """One repetition's measurements and simulated fingerprint."""

    setup_s: float
    call_s: float
    n_ops: int
    fingerprint: dict
    outcome: dict
    layers: dict | None = None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.call_s


@dataclass
class Outcome:
    """Everything a run measured and checked for one workload."""

    reps: list[Rep]
    traced: list[Rep]
    sim: dict
    counts: dict
    checked: int = 0
    mismatched: int = 0
    problems: list[str] = field(default_factory=list)
    waits: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def attempted(self) -> int:
        return sum(r.n_ops for r in self.reps + self.traced)

    @property
    def failed(self) -> int:
        """Ops the program failed plus ops whose output check failed."""
        return sum(r.outcome["failed"] for r in self.reps + self.traced) + self.mismatched


def _rep(wl, seed, call):
    t0 = perf_counter()
    inputs = call("workloads.gen", wl.generate, seed)
    system = wl.build(inputs)
    t1 = perf_counter()
    result = wl.run(system, inputs)
    t2 = perf_counter()
    return inputs, system, result, t1 - t0, t2 - t1


def _direct(_layer, fn, *args):
    return fn(*args)


def _fingerprint(wl, inputs, result) -> dict:
    return {
        "sim": wl.sim_metrics(inputs, result),
        "counts": wl.sim_counts(result),
        "outcome": wl.outcome(result),
        "digest": wl.digest(result),
    }


def run_once(wl, seed: int, tracer: LayerTracer | None = None):
    """One repetition; returns ``(Rep, inputs, system, result)``."""
    gc.collect()
    if tracer is None:
        inputs, system, result, setup, call = _rep(wl, seed, _direct)
    else:
        with tracer.installed():
            inputs, system, result, setup, call = tracer.call(
                ROOT, _rep, wl, seed, tracer.call
            )
    fp = _fingerprint(wl, inputs, result)
    rep = Rep(
        setup_s=setup,
        call_s=call,
        n_ops=wl.n_ops(inputs),
        fingerprint=fp,
        outcome=fp["outcome"],
        layers=tracer.layer_metrics() if tracer is not None else None,
    )
    return rep, inputs, system, result


def _phase_wait_p99_ms(spans, name: str) -> float:
    waits = [s.end_s - s.start_s for s in spans if s.name == name]
    return float(np.percentile(waits, 99)) * 1e3 if waits else 0.0


def _check_bench_gateway(wl, seed, result, root: Path) -> list[str]:
    """At ``BENCH_gateway.json``'s parameters the ``cached`` block must
    reproduce exactly (skipped when the file is absent or differs in
    parameters or seed)."""
    path = root / "BENCH_gateway.json"
    if not hasattr(wl, "bench_block") or seed != BENCH_GATEWAY_SEED or not path.is_file():
        return []
    bench = json.loads(path.read_text())
    if bench.get("offered") != wl.bench_offered():
        return []
    got = wl.bench_block(result)
    return [
        f"BENCH_gateway.json cached.{k}: recorded {v!r}, replayed {got.get(k)!r}"
        for k, v in bench.get("cached", {}).items()
        if got.get(k) != v
    ]


def measure(wl, seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    """Repeat the workload for ``seconds`` and check every output."""
    reps: list[Rep] = []
    traced: list[Rep] = []
    first = None
    deadline = perf_counter() + seconds
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        rep, inputs, system, result = run_once(wl, seed)
        reps.append(rep)
        if first is None:
            first = (inputs, system, result)
        if trace:
            traced.append(run_once(wl, seed, LayerTracer())[0])
    inputs, system, result = first
    base = reps[0].fingerprint
    out = Outcome(
        reps=reps,
        traced=traced,
        sim=base["sim"],
        counts={k: base["counts"].get(k, 0) for k in SIM_COUNT_KEYS},
    )

    check = wl.check(system, inputs, result, seed)
    out.checked, out.mismatched = check.n_checked, check.n_mismatched
    out.problems.extend(check.problems)
    for i, rep in enumerate(reps + traced):
        o = rep.outcome
        if o["offered"] != o["completed"] + o["shed"] + o["failed"]:
            out.problems.append(f"repetition {i}: conservation broken: {o}")
        if rep.fingerprint != base:
            out.problems.append(
                f"repetition {i}: simulated metrics, counts or outputs differ "
                "from repetition 0 (nondeterminism)"
            )
    out.problems.extend(_check_bench_gateway(wl, seed, result, root))

    if trace:
        # Phase waits come from the program's own telemetry, in one extra
        # replay outside the timed and traced repetitions; telemetry must
        # not perturb the simulated results either.
        telemetry = Telemetry.recording()
        rec_inputs = wl.generate(seed)
        rec_result = wl.run(wl.build(rec_inputs, telemetry=telemetry), rec_inputs)
        if _fingerprint(wl, rec_inputs, rec_result) != base:
            out.problems.append("recording telemetry changed the simulated results")
        out.waits = {
            "serving.coalesce_wait_ms_p99": _phase_wait_p99_ms(telemetry.spans, "coalesce"),
            "serving.card_queue_wait_ms_p99": _phase_wait_p99_ms(telemetry.spans, "card_queue"),
        }
    return out


def end_to_end(out: Outcome) -> dict[str, float]:
    """The ten end-to-end metrics."""
    ops = out.reps[0].n_ops
    o = out.reps[0].outcome
    return {
        "setup_s": statistics.median([r.setup_s for r in out.reps]),
        "host_us_per_op": statistics.median([r.call_s for r in out.reps]) / ops * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **out.sim,
        "failed_frac": (o["shed"] + o["failed"] + out.mismatched) / ops,
    }


def per_layer(out: Outcome) -> dict[str, float]:
    """Every per-layer metric: medians over the traced repetitions."""
    layers = {
        key: statistics.median([r.layers[key] for r in out.traced])
        for key in out.traced[0].layers
    }
    untraced = statistics.median([r.wall_s for r in out.reps])
    traced = statistics.median([r.wall_s for r in out.traced])
    metrics = {
        **layers,
        **out.counts,
        **out.waits,
        "trace.overhead_frac": traced / untraced - 1.0,
    }
    return {key: metrics[key] for key in LAYER_UNITS}


def timing_summary(values) -> str:
    """``median [q1, q3] (n=…)`` of at least two timings."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.6g} [q1 {q1:.6g}, q3 {q3:.6g}] (n={len(values)})"
