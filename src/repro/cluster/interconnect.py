"""Host-side interconnect model for multi-card deployments.

Within one card, :class:`~repro.engines.multi_engine.MultiEngineSystem`
stretches the batch makespan by the calibrated shared-interface coefficient
``multi_engine_contention`` ("rate(n) = n * rate(1) / (1 + c * (n - 1))").
A multi-card host exhibits the same shape one level up: every card's DMA
traffic crosses the same PCIe root complex and is fed by the same driver
stack, so concurrent batch transfers serialise partially against each
other, and every chunk dispatch costs the host a fixed scheduling quantum.

:class:`HostLinkModel` captures exactly those two effects — a linear
contention factor applied to each card's PCIe time, and a per-dispatch
latency charged serially on the host thread.  The defaults are deliberately
conservative (a multi-socket host with the cards split across root ports
would do better); zeroing both fields models an ideal host, which the
property tests use to check that scaling is then monotone in card count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_non_negative_finite
from repro.errors import ValidationError

__all__ = ["HostLinkModel"]


@dataclass(frozen=True)
class HostLinkModel:
    """Shared host-path timing between the cards of one cluster node.

    Parameters
    ----------
    host_contention:
        Linear serialisation coefficient between concurrently transferring
        cards: each card's PCIe time is stretched by
        ``1 + host_contention * (active_cards - 1)``.  The same functional
        form as ``PaperScenario.multi_engine_contention``, one level up.
    dispatch_latency_s:
        Host-side cost of issuing one chunk to one card (scheduler work,
        queue bookkeeping, doorbell write — the full kernel-invocation
        overhead is already charged per card by the engine model).
        Dispatches are serial on the host thread, so a run over ``k``
        chunks pays ``k`` of these; the work-stealing policy, which
        dispatches many small chunks, is the one that feels this knob.
    """

    host_contention: float = 0.04
    dispatch_latency_s: float = 5e-6

    def __post_init__(self) -> None:
        check_non_negative_finite(self.host_contention, "host_contention")
        check_non_negative_finite(self.dispatch_latency_s, "dispatch_latency_s")

    def contention_factor(self, active_cards: int) -> float:
        """Stretch applied to each card's PCIe time.

        Parameters
        ----------
        active_cards:
            Cards transferring concurrently during the batch.

        Returns
        -------
        float
            ``1 + host_contention * (active_cards - 1)``; ``1.0`` for a
            single active card.
        """
        if not active_cards >= 1:
            raise ValidationError(
                f"active_cards must be >= 1, got {active_cards}"
            )
        return 1.0 + self.host_contention * (active_cards - 1)

    def dispatch_seconds(self, n_dispatches: int) -> float:
        """Serial host time to issue ``n_dispatches`` chunk dispatches.

        Parameters
        ----------
        n_dispatches:
            Chunks handed to cards during the batch (one per active card
            for the static policies; one per stolen chunk for
            work-stealing).

        Returns
        -------
        float
            Seconds of host-thread time charged before the batch can
            complete.
        """
        if not n_dispatches >= 0:
            raise ValidationError(
                f"n_dispatches must be >= 0, got {n_dispatches}"
            )
        return self.dispatch_latency_s * n_dispatches
