"""Dispatch cost modelling: the simulated economics of one card batch.

:class:`DispatchCostModel` answers "what does one dispatched batch cost
on a card?": a fixed per-dispatch overhead plus per-row and per-cell
marginals, calibrated from one timing replay of the engine network.  A
quote server calibrates one model when it is built, and each of its
replay lanes times its dispatches on a :class:`ClusterTimingRig` built
from that model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.interconnect import HostLinkModel
from repro.cluster.node import ClusterNode
from repro.core.validation import check_count, check_non_negative_finite
from repro.errors import ValidationError
from repro.faults.health import ClusterHealth
from repro.faults.plan import FaultPlan
from repro.sim import Reservation, Resource, Simulation

__all__ = ["DispatchCostModel", "ClusterTimingRig", "FailedWindow"]

#: PCIe payload sizes reused from :meth:`~repro.fpga.pcie.PCIeModel.
#: batch_seconds`: one rate-table entry (two doubles), one option down
#: plus one spread result up.
_RATE_ENTRY_BYTES = 16
_CELL_BYTES = 24 + 8


@dataclass(frozen=True)
class DispatchCostModel:
    """Simulated card time of one micro-batch dispatch.

    The per-dispatch service time splits into a fixed overhead and two
    marginal terms::

        service = invocation
                + contention * (pcie_latency + rows * row_transfer
                                             + cells * cell_transfer)
                + cells * cell_kernel

    where *rows* counts the distinct market states the card receives
    (each ships a fresh pair of rate tables) and *cells* the (row,
    option) pairs it prices.  Host-side contention stretches only the
    PCIe terms, mirroring :mod:`repro.risk.sharding`.

    Parameters
    ----------
    invocation_seconds:
        Fixed kernel-invocation overhead per dispatch.
    pcie_latency_s:
        Fixed DMA setup latency per dispatch.
    row_transfer_seconds:
        Marginal PCIe time per market-state row (both rate tables).
    cell_transfer_seconds:
        Marginal PCIe time per priced cell (option down, spread up).
    cell_kernel_seconds:
        Marginal fabric time per priced cell.
    """

    invocation_seconds: float
    pcie_latency_s: float
    row_transfer_seconds: float
    cell_transfer_seconds: float
    cell_kernel_seconds: float

    def __post_init__(self) -> None:
        for name in (
            "invocation_seconds",
            "pcie_latency_s",
            "row_transfer_seconds",
            "cell_transfer_seconds",
            "cell_kernel_seconds",
        ):
            check_non_negative_finite(getattr(self, name), name)

    @classmethod
    def calibrate(
        cls,
        scenario,
        options,
        yield_curve,
        hazard_curve,
        *,
        n_engines: int = 5,
    ) -> "DispatchCostModel":
        """Derive the model from one representative card batch.

        One :class:`~repro.cluster.node.ClusterNode` timing replay over
        the book (:meth:`~repro.cluster.node.ClusterNode.kernel_cycles`,
        equal to a discrete-event run's cycles) gives the kernel cycles
        of a full-book repricing; subtracting the scenario's invocation
        overhead and dividing by the book size yields the per-cell
        fabric cost.  The PCIe terms come straight from the scenario's
        :class:`~repro.fpga.pcie.PCIeModel` payload sizes.

        Parameters
        ----------
        scenario:
            Experimental configuration (clock, PCIe, overheads).
        options:
            The book quoted (sets the representative batch).
        yield_curve / hazard_curve:
            Base rate tables (sizes drive the simulated costs).
        n_engines:
            CDS engines per card.
        """
        node = ClusterNode(0, scenario, n_engines=n_engines)
        kernel_cycles = node.kernel_cycles(
            list(options), yield_curve, hazard_curve
        )
        compute_cycles = max(
            kernel_cycles - scenario.invocation_overhead_cycles, 0.0
        )
        bandwidth = scenario.pcie.bandwidth_bytes_per_sec
        return cls(
            invocation_seconds=scenario.clock.seconds(
                scenario.invocation_overhead_cycles
            ),
            pcie_latency_s=scenario.pcie.latency_s,
            row_transfer_seconds=2 * scenario.n_rates * _RATE_ENTRY_BYTES
            / bandwidth,
            cell_transfer_seconds=_CELL_BYTES / bandwidth,
            cell_kernel_seconds=scenario.clock.seconds(compute_cycles)
            / len(options),
        )

    def service_seconds(
        self, n_rows: int, n_cells: int, *, contention: float = 1.0
    ) -> float:
        """Card busy time for one dispatched chunk.

        Parameters
        ----------
        n_rows / n_cells:
            Distinct market-state rows transferred and cells priced.
        contention:
            Host-link stretch factor for the PCIe terms (see
            :meth:`~repro.cluster.interconnect.HostLinkModel.
            contention_factor`).
        """
        if not n_rows >= 1 or not n_cells >= 1:
            raise ValidationError(
                f"a dispatch needs >= 1 row and cell, got {n_rows}/{n_cells}"
            )
        if not contention >= 1.0:
            raise ValidationError(f"contention must be >= 1, got {contention}")
        pcie = (
            self.pcie_latency_s
            + n_rows * self.row_transfer_seconds
            + n_cells * self.cell_transfer_seconds
        )
        return (
            self.invocation_seconds
            + contention * pcie
            + n_cells * self.cell_kernel_seconds
        )


@dataclass(frozen=True, init=False)
class FailedWindow(Reservation):
    """A chunk's card window that a fault cut short.

    The chunk died at ``done_s``; ``service_s`` is the card time it
    burned first, zero when the card was already down as the chunk
    reached the head of its queue.  It is a :class:`Reservation`, with
    its slots and ``__init__``, but never equal to one.
    """

    # Not ``slots=True``: on Python 3.10 that declares the inherited
    # slots again, so the parent's stores fill the old slots and every
    # read of the new ones raises AttributeError.
    __slots__ = ()


class ClusterTimingRig:
    """One simulated cluster's timing surfaces: host thread + N cards.

    Each serving replay lane builds one from its server's cost model
    (:meth:`~repro.serving.engine.QuoteServer.lane`): a fresh or shared
    :class:`~repro.sim.Simulation` carrying one serially-occupied host
    :class:`~repro.sim.Resource` (chunk dispatches pay
    :meth:`~repro.cluster.interconnect.HostLinkModel.dispatch_seconds`
    each, in issue order) and one resource per card (busy windows granted
    by the server's :class:`DispatchCostModel`).  All three surfaces
    share the rig's single clock — the unified-simulation invariant.
    Every dispatch is timed against the rig's :attr:`health`, which is
    the empty fault plan's (every card up, nothing stretched) until
    :meth:`inject` installs another plan.

    Parameters
    ----------
    cost_model:
        The backend's per-dispatch economics.
    link:
        Host-path timing model.
    n_cards:
        Simulated cards to stand up.
    sim:
        Share an existing simulation (default: a fresh one), letting
        several workloads contend for the same cards on one clock.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  When it
        records, every host and card busy window is emitted as a span on
        that resource's track; :attr:`last_host_window` always tracks
        the most recent host reservation so callers can split a
        dispatch's latency into host-link and card phases.
    """

    def __init__(
        self,
        cost_model: DispatchCostModel,
        link: HostLinkModel,
        n_cards: int,
        *,
        sim: Simulation | None = None,
        telemetry=None,
    ) -> None:
        check_count(n_cards, "n_cards")
        self.cost_model = cost_model
        self.link = link
        self._dispatch_s = link.dispatch_seconds(1)
        self.sim = sim if sim is not None else Simulation()
        recorder = telemetry.recorder if telemetry is not None else None
        self.telemetry = telemetry
        self.host = Resource("host", recorder=recorder)
        self.cards = [
            Resource(f"card{c}", recorder=recorder) for c in range(n_cards)
        ]
        #: The host reservation of the most recent :meth:`dispatch` —
        #: the "issued" half of the chained pair, which the serving
        #: layer reads to attribute host-link time per request.
        self.last_host_window: Reservation | None = None
        #: The availability view every dispatch is timed against.
        self.health = ClusterHealth(FaultPlan(), n_cards)

    @property
    def n_cards(self) -> int:
        """Cards on the rig."""
        return len(self.cards)

    def inject(self, plan: FaultPlan) -> ClusterHealth:
        """Time every later dispatch against ``plan``; returns its health.

        The plan's host-link outages become downtime on the host
        resource, so no dispatch issues inside one.
        """
        self.health = ClusterHealth(plan, self.n_cards)
        for outage in plan.link_outages:
            self.host.add_downtime(outage.at_s, outage.until_s)
        return self.health

    def dispatch(
        self,
        ready_s: float,
        card_index: int,
        n_rows: int,
        n_cells: int,
        *,
        contention: float = 1.0,
    ) -> Reservation:
        """Time one chunk: serial host dispatch, then the card window.

        The host thread issues the dispatch no earlier than ``ready_s``
        (batch formation) and no earlier than its previous dispatch; the
        card then starts when both the dispatch and its own previous
        window have completed — the exact legacy ``host_free`` /
        ``busy_until`` recurrence, now two chained reservations.

        Both windows are timed against :attr:`health`: a degraded link
        stretches the host dispatch and a straggler the card window.  A
        chunk that dies comes back as a :class:`FailedWindow` — the
        card was down when the chunk reached the head of its queue, or
        a crash cut its window short.  Under a plan that cannot touch
        timing (:attr:`~repro.faults.health.ClusterHealth.
        touches_timing`), the empty plan included, every factor is
        exactly 1 and no window fails, so the dispatch is the two plain
        reservations and asks the plan nothing.
        """
        health = self.health
        host_s = self._dispatch_s
        if health.touches_timing:
            host_s *= health.link_factor(self.host.peek_start(ready_s))
        issued = self.host.reserve(
            ready_s,
            host_s,
            span_name="dispatch",
            span_kind="host_link",
            span_args={"card": card_index},
        )
        self.last_host_window = issued
        card = self.cards[card_index]
        service = self.cost_model.service_seconds(
            n_rows, n_cells, contention=contention
        )
        span = {
            "span_name": "chunk",
            "span_kind": "dispatch",
            "span_args": {"rows": n_rows, "cells": n_cells},
        }
        if not health.touches_timing:
            return card.reserve(issued.done_s, service, **span)
        start = card.peek_start(issued.done_s)
        if health.card_down(card_index, start):
            return FailedWindow(card.name, issued.done_s, start, start, 0.0)
        service *= health.service_factor(card_index, start, service)
        crash_s = health.crash_during(card_index, start, start + service)
        if crash_s is not None:
            # The card genuinely burned [start, crash) before dying.
            card.reserve(issued.done_s, crash_s - start, **span)
            return FailedWindow(
                card.name, issued.done_s, start, crash_s, crash_s - start
            )
        return card.reserve(issued.done_s, service, **span)
