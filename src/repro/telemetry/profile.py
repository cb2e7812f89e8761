"""Kernel profiling: wall-time per chunk vs simulated busy time.

The batched kernel (:func:`~repro.core.vector_pricing.price_packed_many`)
exposes a process-wide profile hook called once per internal chunk with
the chunk's shape and measured host wall-time.  :class:`KernelProfiler`
is the telemetry-side consumer: installed for the duration of a run (as
a context manager), it folds every chunk into a metrics registry —

* ``kernel_calls_total`` / ``kernel_chunks_total`` — kernel entries and
  internal chunks executed;
* ``kernel_rows_total`` / ``kernel_cells_total`` — market-state rows and
  (row, option) cells priced;
* ``kernel_wall_seconds_total`` — measured host wall-time in the kernel;
* ``kernel_chunk_wall_seconds`` — histogram of per-chunk wall-times —

and, once the simulated run completes, pairs that against the simulated
card busy time (:meth:`set_simulated_busy`) so a report can show the
host-numerics cost next to the device-model cost for the same work:
the wall/simulated ratio is the "how much faster would the modelled
cluster be than this host" number.
"""

from __future__ import annotations

from repro.core import vector_pricing
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Collects per-chunk kernel timings into a metrics registry.

    Parameters
    ----------
    registry:
        Where the kernel metrics live (a fresh registry by default).

    Use as a context manager around the run to profile::

        profiler = KernelProfiler(registry)
        with profiler:
            server.serve(requests)
        profiler.set_simulated_busy(sum(c.busy_seconds for c in rig.cards))
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous_hook = None
        self._installed = False
        self._calls = self.registry.counter("kernel_calls_total")
        self._chunks = self.registry.counter("kernel_chunks_total")
        self._rows = self.registry.counter("kernel_rows_total")
        self._cells = self.registry.counter("kernel_cells_total")
        self._wall = self.registry.counter("kernel_wall_seconds_total")
        self._chunk_wall = self.registry.histogram("kernel_chunk_wall_seconds")

    # ------------------------------------------------------------------
    def on_call(self) -> None:
        """Hook: one kernel entry began."""
        self._calls.inc()

    def on_chunk(self, n_rows: int, n_cells: int, wall_s: float) -> None:
        """Hook: one internal chunk completed in ``wall_s`` seconds."""
        self._chunks.inc()
        self._rows.inc(n_rows)
        self._cells.inc(n_cells)
        self._wall.inc(wall_s)
        self._chunk_wall.observe(wall_s)

    # ------------------------------------------------------------------
    def install(self) -> "KernelProfiler":
        """Install as the process-wide kernel profile hook."""
        if not self._installed:
            self._previous_hook = vector_pricing.get_kernel_profile_hook()
            vector_pricing.set_kernel_profile_hook(self)
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Restore whatever hook was installed before (idempotent)."""
        if self._installed:
            vector_pricing.set_kernel_profile_hook(self._previous_hook)
            self._previous_hook = None
            self._installed = False

    def __enter__(self) -> "KernelProfiler":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def set_simulated_busy(self, busy_seconds: float) -> None:
        """Record the simulated device busy time for the profiled work.

        Sets ``kernel_simulated_busy_seconds`` and, when wall time was
        measured, ``kernel_wall_vs_simulated_ratio`` (host seconds per
        simulated device second — how much the modelled cluster would
        beat this host by).
        """
        self.registry.gauge("kernel_simulated_busy_seconds").set(busy_seconds)
        wall = self._wall.value
        if busy_seconds > 0 and wall > 0:
            self.registry.gauge("kernel_wall_vs_simulated_ratio").set(
                wall / busy_seconds
            )

    @property
    def n_chunks(self) -> int:
        """Chunks profiled so far."""
        return int(self._chunks.value)

    @property
    def wall_seconds(self) -> float:
        """Total measured kernel wall-time."""
        return self._wall.value
