"""One simulated Alveo U280 card inside a cluster node.

A :class:`ClusterNode` owns one :class:`~repro.engines.multi_engine.
MultiEngineSystem` — the paper's Table II configuration — plus the card-
level platform models it needs for cluster roll-ups: floorplan validation
happens at construction (exactly as on a single card, six paper engines
still do not fit), and power comes from the same affine
:class:`~repro.fpga.power.FPGAPowerModel` whether the card is busy or
sitting idle drawing shell power.  :meth:`ClusterNode.kernel_cycles`
gives a chunk's fabric cycles without pricing it, for the cost models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.curves import HazardCurve, YieldCurve
from repro.core.types import CDSOption
from repro.core.validation import check_index
from repro.engines.base import EngineResult
from repro.engines.multi_engine import MultiEngineSystem
from repro.errors import ValidationError
from repro.workloads.scenarios import PaperScenario

__all__ = ["ClusterNode", "CardReport"]


class ClusterNode:
    """One card of the cluster: engines, PCIe accounting, power.

    Parameters
    ----------
    card_id:
        Position of this card in the cluster (0-based).
    scenario:
        Experimental configuration shared by every card.
    n_engines:
        CDS engines per card; validated against the U280 floorplan at
        construction (the paper's maximum is five).
    """

    def __init__(
        self,
        card_id: int,
        scenario: PaperScenario | None = None,
        *,
        n_engines: int = 5,
    ) -> None:
        check_index(card_id, "card_id")
        self.card_id = card_id
        self.system = MultiEngineSystem(scenario, n_engines=n_engines)
        self.scenario = self.system.scenario

    @property
    def n_engines(self) -> int:
        """CDS engines deployed on this card."""
        return self.system.n_engines

    @property
    def active_watts(self) -> float:
        """Card power with every engine running (Table II column 3)."""
        return self.scenario.fpga_power.watts(self.n_engines)

    @property
    def idle_watts(self) -> float:
        """Card power with the shell loaded but no engine active."""
        return self.scenario.fpga_power.watts(0)

    def price(
        self,
        options: list[CDSOption],
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
    ) -> EngineResult:
        """Price one assigned chunk on this card's engines.

        Parameters
        ----------
        options:
            The chunk of the portfolio sharded to this card (non-empty).
        yield_curve / hazard_curve:
            Full rate tables — every card receives both in their entirety,
            as every engine does on a single card ("all engines require the
            full interest and hazard rate data", paper Section IV).

        Returns
        -------
        EngineResult
            Chunk spreads plus card-local cycle and PCIe accounting.  The
            cluster applies host-side contention on top.
        """
        self._check_chunk(options)
        return self.system.run(options, yield_curve, hazard_curve)

    def kernel_cycles(
        self,
        options: list[CDSOption],
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
    ) -> float:
        """Fabric cycles :meth:`price` reports for the chunk, without
        pricing it through the discrete-event engines.

        The timing-only entry of the card
        (:meth:`~repro.engines.multi_engine.MultiEngineSystem.
        kernel_cycles`): equal to ``price(...).kernel_cycles`` and
        rejecting what :meth:`price` rejects.  Cost models call this.
        """
        self._check_chunk(options)
        return self.system.kernel_cycles(options, yield_curve, hazard_curve)

    def _check_chunk(self, options: list[CDSOption]) -> None:
        if not options:
            raise ValidationError(
                f"card {self.card_id}: cannot price an empty chunk"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ClusterNode(card_id={self.card_id}, n_engines={self.n_engines})"


@dataclass(frozen=True)
class CardReport:
    """Roll-up of one card's contribution to a cluster batch.

    Attributes
    ----------
    card_id:
        Which card.
    n_options:
        Chunk size this card priced (0 for an idle card).
    kernel_seconds:
        Fabric time of the card's multi-engine run.
    pcie_seconds:
        Host transfer time *after* host-side contention stretching.
    seconds:
        Card busy time: kernel + contended PCIe.
    utilisation:
        Busy fraction of the cluster makespan (0 for idle cards).
    watts:
        Card power during the batch (idle cards draw shell power).
    options_per_second:
        Card-local throughput over its busy time (0 for idle cards).
    result:
        Raw engine result for the chunk (``None`` for idle cards);
        excluded from equality comparisons.
    """

    card_id: int
    n_options: int
    kernel_seconds: float
    pcie_seconds: float
    seconds: float
    utilisation: float
    watts: float
    options_per_second: float
    result: EngineResult | None = field(default=None, compare=False)

    @property
    def idle(self) -> bool:
        """Whether this card received no work."""
        return self.n_options == 0
