"""Host-side request batching in front of the cluster.

A pricing service does not see tidy fixed-size batches: requests arrive in
bursts and the host must trade latency against throughput when deciding
when to dispatch.  :class:`BatchQueue` holds the standard size-or-linger
coalescing rule (dispatch when ``max_batch`` requests are pending, or when
the oldest pending request has waited ``linger_s``).  The serving layer's
:class:`~repro.serving.coalescer.MicroBatchCoalescer` applies it online;
:meth:`BatchQueue.coalesce` replays it offline over a whole arrival trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import CDSOption
from repro.core.validation import is_index
from repro.errors import ValidationError
from repro.workloads.cluster import Arrival

__all__ = ["BatchQueue", "DispatchBatch"]


@dataclass(frozen=True)
class DispatchBatch:
    """One coalesced batch handed from the queue to the cluster.

    Attributes
    ----------
    dispatch_time_s:
        When the queue released the batch.
    options:
        The coalesced contracts, in arrival order.
    arrival_times:
        Per-contract arrival times (for latency accounting).
    """

    dispatch_time_s: float
    options: list[CDSOption]
    arrival_times: list[float]

    def __post_init__(self) -> None:
        if len(self.options) != len(self.arrival_times):
            raise ValidationError(
                "options and arrival_times must have equal length"
            )
        if not self.options:
            raise ValidationError("a dispatch batch cannot be empty")

    @property
    def n_options(self) -> int:
        """Contracts in this batch."""
        return len(self.options)


@dataclass(frozen=True)
class BatchQueue:
    """Size-or-linger request coalescing.

    Parameters
    ----------
    max_batch:
        Dispatch immediately once this many requests are pending.
    linger_s:
        Dispatch whatever is pending once the oldest request has waited
        this long.
    """

    max_batch: int = 256
    linger_s: float = 1e-3

    def __post_init__(self) -> None:
        if not is_index(self.max_batch) or self.max_batch < 1:
            raise ValidationError(
                f"max_batch must be an integer >= 1, got {self.max_batch!r}"
            )
        if not self.linger_s >= 0:  # NaN too: a NaN linger never fires
            raise ValidationError(
                f"linger_s must be >= 0, got {self.linger_s}"
            )

    def coalesce(self, arrivals: list[Arrival]) -> list[DispatchBatch]:
        """Replay ``arrivals`` through the queue and return its dispatches.

        Parameters
        ----------
        arrivals:
            Request batches in any order (sorted internally by time).

        Returns
        -------
        list[DispatchBatch]
            Dispatches in time order; every arriving contract appears in
            exactly one dispatch.
        """
        pending: list[tuple[float, CDSOption]] = []
        batches: list[DispatchBatch] = []

        def flush(dispatch_time: float) -> None:
            taken, rest = pending[: self.max_batch], pending[self.max_batch :]
            batches.append(
                DispatchBatch(
                    dispatch_time_s=dispatch_time,
                    options=[o for _, o in taken],
                    arrival_times=[t for t, _ in taken],
                )
            )
            pending[:] = rest

        for arrival in sorted(arrivals, key=lambda a: a.time_s):
            for option in arrival.options:
                # Linger deadlines that expired before this request arrived.
                while pending and arrival.time_s > pending[0][0] + self.linger_s:
                    flush(pending[0][0] + self.linger_s)
                pending.append((arrival.time_s, option))
                if len(pending) >= self.max_batch:
                    flush(arrival.time_s)
        while pending:
            flush(pending[0][0] + self.linger_s)
        return batches
