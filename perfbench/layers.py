"""Per-layer host-time attribution, recorded from outside ``src/``.

:class:`LayerTracer` patches the public entry points of each layer of
``repro`` for the duration of a ``with tracer.installed():`` block and
restores the originals on exit.  Every patched call becomes a span on
one stack; a layer's *self time* is the wall time inside its spans
minus the wall time of the traced spans nested in them.  The kernel is
credited through the existing ``KernelProfiler`` hook, which reports
the measured wall time of every kernel chunk.

The harness opens a root span (:data:`ROOT`) around each repetition, so
the root's self time is the part of the traced wall that no layer
covers, and the self times of all layers plus the root sum to the
traced wall by construction.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.api.cost import ClusterTimingRig, DispatchCostModel
from repro.cluster.node import ClusterNode
from repro.gateway.cache import QuoteCache
from repro.gateway.engine import Gateway
from repro.gateway.routing import HashRing
from repro.gateway.tenancy import TenantBook
from repro.risk import engine as risk_engine
from repro.risk.engine import ScenarioRiskEngine
from repro.serving.coalescer import MicroBatchCoalescer
from repro.serving.engine import QuoteServer
from repro.sim import Simulation
from repro.telemetry import KernelProfiler

#: The harness's own span: its self time is the unattributed remainder.
ROOT = "harness"
#: Layer credited with every kernel chunk's measured wall time.
KERNEL = "core.kernel"
#: Layer of the event loop itself (callbacks are charged to their owner).
SIM_LOOP = "sim.loop"

#: ``(owner, attribute, layer)`` for every patched entry point.
TARGETS = (
    (Gateway, "__init__", "setup.construct"),
    (QuoteServer, "__init__", "setup.construct"),
    (ScenarioRiskEngine, "__init__", "setup.construct"),
    (DispatchCostModel, "calibrate", "api.calibrate"),
    (ClusterNode, "price", "cluster.node_price"),
    (ScenarioRiskEngine, "quote_rows", "api.quote_rows"),
    (ClusterTimingRig, "dispatch", "api.rig_dispatch"),
    (MicroBatchCoalescer, "offer", "serving.coalescer"),
    (MicroBatchCoalescer, "advance", "serving.coalescer"),
    (MicroBatchCoalescer, "reap", "serving.coalescer"),
    (MicroBatchCoalescer, "flush", "serving.coalescer"),
    (QuoteServer, "serve", "serving.serve"),
    (QuoteServer, "_run_batch", "serving.serve"),
    (TenantBook, "admit", "gateway.admit"),
    (HashRing, "route_request", "gateway.route"),
    (QuoteCache, "get", "gateway.cache"),
    (QuoteCache, "begin", "gateway.cache"),
    (QuoteCache, "fulfil", "gateway.cache"),
    (QuoteCache, "abandon", "gateway.cache"),
    (QuoteCache, "invalidate_row", "gateway.cache"),
    (Gateway, "serve", "gateway.serve"),
    (Simulation, "run", SIM_LOOP),
    (ScenarioRiskEngine, "revalue", "risk.revalue"),
    (risk_engine, "simulate_grid_run", "risk.grid_timing"),
)

#: Event callbacks are closures defined inside ``serve``; they run under
#: ``Simulation.run`` but belong to the layer of the module defining them.
CALLBACK_LAYERS = {
    "repro.gateway.engine": "gateway.serve",
    "repro.serving.engine": "serving.serve",
}

#: Every layer -> the benchmark metric reporting its self time.
SELF_TIME_METRICS = {
    "workloads.gen": "workloads.gen_s",
    "setup.construct": "setup.construct_self_s",
    "api.calibrate": "api.calibrate_s",
    "cluster.node_price": "cluster.node_price_s",
    KERNEL: "core.kernel_s",
    "api.quote_rows": "api.quote_rows_self_s",
    "api.rig_dispatch": "api.rig_dispatch_s",
    "serving.coalescer": "serving.coalescer_s",
    "serving.serve": "serving.serve_self_s",
    "gateway.admit": "gateway.admit_s",
    "gateway.route": "gateway.route_s",
    "gateway.cache": "gateway.cache_s",
    "gateway.serve": "gateway.self_s",
    SIM_LOOP: "sim.loop_self_s",
    "risk.grid_timing": "risk.grid_timing_s",
    "risk.revalue": "risk.revalue_self_s",
}


class _KernelHook(KernelProfiler):
    """The kernel profiler, also crediting chunk time to the span stack."""

    def __init__(self, tracer: "LayerTracer") -> None:
        super().__init__()
        self._tracer = tracer

    def on_chunk(self, n_rows: int, n_cells: int, wall_s: float) -> None:
        super().on_chunk(n_rows, n_cells, wall_s)
        self._tracer.leaf(KERNEL, wall_s)


class LayerTracer:
    """Self time and call counts per layer over one traced repetition."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sim_events = 0
        self._stack: list[list[float]] = []
        self.kernel = _KernelHook(self)

    # ------------------------------------------------------------------
    def call(self, layer: str, fn, *args, **kwargs):
        """Run ``fn`` as one span of ``layer``."""
        return self._wrap(fn, layer)(*args, **kwargs)

    def leaf(self, layer: str, wall_s: float) -> None:
        """Credit time measured inside the innermost open span to ``layer``."""
        self.self_s[layer] += wall_s
        if self._stack:
            self._stack[-1][0] += wall_s

    @property
    def wall_s(self) -> float:
        """Traced wall: the sum of every layer's self time and the root's."""
        return sum(self.self_s.values())

    # ------------------------------------------------------------------
    def _wrap(self, fn, layer: str):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def traced(*args, **kwargs):
            t_in = perf_counter()
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[0]
                calls[layer] += 1
                # The wrapper's own bookkeeping is charged to the root, not
                # to the caller, so tracing inflates no layer's self time.
                extent = perf_counter() - t_in
                self_s[ROOT] += extent - dt
                if stack:
                    stack[-1][0] += extent

        return traced

    @contextmanager
    def installed(self):
        """Patch every target (and the kernel hook) for the block's extent."""
        saved = []

        def patch(owner, name, value):
            saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

        try:
            for owner, name, layer in TARGETS:
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    fn = raw.__func__
                    patch(owner, name, classmethod(
                        functools.wraps(fn)(self._wrap(fn, layer))
                    ))
                elif owner is Simulation and name == "run":
                    patch(owner, name, functools.wraps(raw)(
                        self._wrap(self._counting_run(raw), layer)
                    ))
                else:
                    patch(owner, name, functools.wraps(raw)(self._wrap(raw, layer)))
            schedule_at = Simulation.__dict__["schedule_at"]

            @functools.wraps(schedule_at)
            def traced_schedule_at(sim, time, callback, **kwargs):
                layer = CALLBACK_LAYERS.get(getattr(callback, "__module__", ""))
                if layer is not None:
                    # Wrapping one callback per event is tracing cost:
                    # charge it to the root, not to the scheduling layer.
                    t0 = perf_counter()
                    callback = self._wrap(callback, layer)
                    self.leaf(ROOT, perf_counter() - t0)
                return schedule_at(sim, time, callback, **kwargs)

            patch(Simulation, "schedule_at", traced_schedule_at)
            with self.kernel:
                yield self
        finally:
            for owner, name, raw in reversed(saved):
                setattr(owner, name, raw)

    def _counting_run(self, run):
        def counted(sim, *args, **kwargs):
            executed = run(sim, *args, **kwargs)
            self.sim_events += executed
            return executed

        return counted

    # ------------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of this repetition, by benchmark name."""
        s, calls = self.self_s, self.calls
        kernel_calls = int(self.kernel.registry.counter("kernel_calls_total").value)
        kernel_cells = int(self.kernel.registry.counter("kernel_cells_total").value)
        wall = self.wall_s
        return {
            **{metric: s[layer] for layer, metric in SELF_TIME_METRICS.items()},
            "api.calibrate_calls": calls["api.calibrate"],
            "cluster.node_price_calls": calls["cluster.node_price"],
            "core.kernel_calls": kernel_calls,
            "core.kernel_cells": kernel_cells,
            "core.kernel_us_per_call": (
                s[KERNEL] / kernel_calls * 1e6 if kernel_calls else 0.0
            ),
            "core.kernel_ns_per_cell": (
                s[KERNEL] / kernel_cells * 1e9 if kernel_cells else 0.0
            ),
            "api.rig_dispatch_calls": calls["api.rig_dispatch"],
            "sim.events": self.sim_events,
            "sim.host_us_per_event": (
                s[SIM_LOOP] / self.sim_events * 1e6 if self.sim_events else 0.0
            ),
            "trace.unattributed_frac": s[ROOT] / wall if wall > 0 else 0.0,
        }
