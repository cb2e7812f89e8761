"""Risk aggregation: P&L distributions, VaR/ES, ladders, concentration.

Everything here consumes the outputs of :class:`~repro.risk.engine.
ScenarioRiskEngine` and reduces them to the numbers a risk report prints:

* **VaR / ES** over a scenario P&L vector, at configurable confidence
  levels.  Both are order statistics of the empirical loss distribution
  (``method="higher"`` quantile, tail mean at or beyond it), so
  ``VaR <= ES`` holds by construction at every confidence level.
* **CS01 / IR01 ladders**: the portfolio P&L of one bucket bump per tenor
  bucket, next to the parallel bump's P&L.  Because PV is near-linear in
  a one-basis-point bump and the buckets tile the curve, the ladder sums
  to the parallel sensitivity to first order.
* **Jump-to-default concentration**: each position's signed JTD exposure
  and how concentrated the book's gross JTD is (largest share, top-N
  share, Herfindahl index).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.risk import ONE_BP
from repro.core.validation import check_count, check_range
from repro.errors import ValidationError
from repro.risk.engine import ScenarioRiskEngine
from repro.risk.scenarios import (
    DEFAULT_TENOR_EDGES,
    bucketed_shocks,
    parallel_shocks,
    tenor_buckets,
)

__all__ = [
    "TailMeasure",
    "tail_measures",
    "value_at_risk",
    "expected_shortfall",
    "LadderEntry",
    "SensitivityLadder",
    "cs01_ladder",
    "ir01_ladder",
    "JTDConcentration",
    "jtd_concentration",
]

#: Hazard-intensity bump equivalent to 1 bp of spread at 40% recovery —
#: the same CS01 convention as :class:`repro.core.risk.RiskEngine`.
CS01_HAZARD_BUMP = ONE_BP / 0.6


def _var_index(n_losses: int, confidence: float) -> int:
    """The VaR order-statistic index into an ascending loss vector.

    The index is the one :func:`numpy.quantile`'s ``method="higher"``
    selects — ``ceil(confidence * (n - 1))`` — so the tail is defined by
    *rank*, not by value comparison against the VaR.  Rank membership
    makes ES immune to tie inflation (several scenarios landing on the
    VaR value do not each enter the tail) and exactly translation-
    equivariant alongside VaR.
    """
    check_range(confidence, "confidence", "(0, 1)")
    if n_losses == 0:
        raise ValidationError("VaR needs at least one scenario")
    return int(np.ceil(confidence * (n_losses - 1)))


def _sorted_losses(pnl: np.ndarray, confidence: float) -> tuple[np.ndarray, int]:
    """Ascending losses plus the VaR order-statistic index."""
    losses = -np.asarray(pnl, dtype=np.float64)
    idx = _var_index(losses.size, confidence)
    return np.sort(losses), idx


def value_at_risk(pnl: np.ndarray, confidence: float = 0.99) -> float:
    """Value-at-Risk of a scenario P&L vector (a positive loss number).

    The empirical ``confidence`` quantile of the loss distribution
    ``L = -pnl``, taken as an order statistic (``method="higher"``) so it
    is always one of the observed losses.

    Parameters
    ----------
    pnl:
        Per-scenario portfolio P&L.
    confidence:
        Confidence level in ``(0, 1)``, e.g. 0.99.
    """
    losses, idx = _sorted_losses(pnl, confidence)
    return float(losses[idx])


def expected_shortfall(pnl: np.ndarray, confidence: float = 0.99) -> float:
    """Expected shortfall: mean loss at or beyond the VaR order statistic.

    Defined on the same empirical distribution as :func:`value_at_risk`
    with a rank-based tail, so ``ES >= VaR`` for every P&L vector and
    confidence level.

    Parameters
    ----------
    pnl:
        Per-scenario portfolio P&L.
    confidence:
        Confidence level in ``(0, 1)``.
    """
    losses, idx = _sorted_losses(pnl, confidence)
    return float(losses[idx:].mean())


@dataclass(frozen=True)
class TailMeasure:
    """VaR and ES at one confidence level."""

    confidence: float
    var: float
    es: float


def tail_measures(
    pnl: np.ndarray, confidences: Sequence[float] = (0.95, 0.99)
) -> tuple[TailMeasure, ...]:
    """VaR/ES pairs at each confidence level, in the order given.

    The loss vector is sorted **once**; every confidence level's VaR and
    ES are then read off that single ordering (an index and a tail-slice
    mean), instead of independent order-statistic passes per level.  The
    numbers are identical to calling :func:`value_at_risk` and
    :func:`expected_shortfall` separately.
    """
    if not confidences:
        raise ValidationError("need at least one confidence level")
    losses = np.sort(-np.asarray(pnl, dtype=np.float64))
    measures = []
    for c in confidences:
        idx = _var_index(losses.size, c)
        measures.append(
            TailMeasure(
                confidence=c,
                var=float(losses[idx]),
                es=float(losses[idx:].mean()),
            )
        )
    return tuple(measures)


@dataclass(frozen=True)
class LadderEntry:
    """One bucket of a sensitivity ladder: P&L for that bucket's bump."""

    bucket_lo: float
    bucket_hi: float
    value: float


@dataclass(frozen=True)
class SensitivityLadder:
    """A bucketed sensitivity ladder next to its parallel reference.

    Attributes
    ----------
    kind:
        ``"cs01"`` or ``"ir01"``.
    bump:
        The per-bucket (and parallel) bump size, decimal.
    entries:
        One entry per tenor bucket, in tenor order.
    parallel:
        Portfolio P&L of the whole-curve bump with the same size — the
        number the bucketed entries sum to, to first order.
    """

    kind: str
    bump: float
    entries: tuple[LadderEntry, ...]
    parallel: float

    @property
    def bucket_sum(self) -> float:
        """Sum of the bucketed sensitivities."""
        return float(sum(e.value for e in self.entries))

    def render(self) -> str:
        """Small text table: one line per bucket plus the roll-up."""
        lines = [f"{self.kind.upper()} ladder (bump {self.bump / ONE_BP:g} bp):"]
        for e in self.entries:
            lines.append(
                f"  ({e.bucket_lo:>4g}, {e.bucket_hi:>4g}] yr  {e.value:>+12.6f}"
            )
        lines.append(f"  bucket sum {self.bucket_sum:>+12.6f}")
        lines.append(f"  parallel   {self.parallel:>+12.6f}")
        return "\n".join(lines)


def _ladder(
    engine: ScenarioRiskEngine,
    *,
    kind: str,
    curve: str,
    bump: float,
    edges: Sequence[float],
    batch: bool | None = None,
    chunk_size: int | None = None,
) -> SensitivityLadder:
    bucket_set = bucketed_shocks(
        engine.yield_curve, engine.hazard_curve, curve=curve, bump=bump, edges=edges
    )
    bucket_pnl = engine.revalue(
        bucket_set, with_timing=False, batch=batch, chunk_size=chunk_size
    ).pnl
    if curve == "hazard":
        parallel_set = parallel_shocks(
            engine.yield_curve,
            engine.hazard_curve,
            hazard_bumps_bps=(bump / ONE_BP,),
            rate_bumps_bps=(),
        )
    else:
        parallel_set = parallel_shocks(
            engine.yield_curve,
            engine.hazard_curve,
            hazard_bumps_bps=(),
            rate_bumps_bps=(bump / ONE_BP,),
        )
    parallel_pnl = engine.revalue(
        parallel_set, with_timing=False, batch=batch, chunk_size=chunk_size
    ).pnl
    entries = tuple(
        LadderEntry(bucket_lo=lo, bucket_hi=hi, value=float(v))
        for (lo, hi), v in zip(tenor_buckets(edges), bucket_pnl)
    )
    return SensitivityLadder(
        kind=kind,
        bump=bump,
        entries=entries,
        parallel=float(parallel_pnl[0]),
    )


def cs01_ladder(
    engine: ScenarioRiskEngine,
    *,
    bump: float = CS01_HAZARD_BUMP,
    edges: Sequence[float] = DEFAULT_TENOR_EDGES,
    batch: bool | None = None,
    chunk_size: int | None = None,
) -> SensitivityLadder:
    """Bucketed credit-spread sensitivity ladder for the engine's book.

    Parameters
    ----------
    engine:
        The revaluation engine (book + base state).
    bump:
        Hazard-intensity bump per bucket (default: the 1 bp spread
        equivalent at 40% recovery, matching ``RiskEngine``).
    edges:
        Tenor-bucket edges; must tile the curve for the bucket sum to
        reconcile with the parallel number.
    batch / chunk_size:
        Revaluation-mode overrides forwarded to
        :meth:`~repro.risk.engine.ScenarioRiskEngine.revalue` (``None``
        keeps the engine defaults); the ladder is bit-identical either
        way.
    """
    return _ladder(
        engine,
        kind="cs01",
        curve="hazard",
        bump=bump,
        edges=edges,
        batch=batch,
        chunk_size=chunk_size,
    )


def ir01_ladder(
    engine: ScenarioRiskEngine,
    *,
    bump: float = ONE_BP,
    edges: Sequence[float] = DEFAULT_TENOR_EDGES,
    batch: bool | None = None,
    chunk_size: int | None = None,
) -> SensitivityLadder:
    """Bucketed interest-rate sensitivity ladder for the engine's book."""
    return _ladder(
        engine,
        kind="ir01",
        curve="yield",
        bump=bump,
        edges=edges,
        batch=batch,
        chunk_size=chunk_size,
    )


@dataclass(frozen=True)
class JTDConcentration:
    """How concentrated the book's jump-to-default exposure is.

    Attributes
    ----------
    net / gross:
        Signed sum and absolute sum of per-position JTD exposures.
    largest / largest_index:
        The single biggest absolute exposure and its book position.
    top_share:
        Fraction of gross JTD carried by the ``top_n`` largest positions.
    top_n:
        How many positions ``top_share`` covers.
    herfindahl:
        Sum of squared gross-JTD shares: 1/n for a uniform book, 1.0 for
        a single-name book.
    """

    net: float
    gross: float
    largest: float
    largest_index: int
    top_share: float
    top_n: int
    herfindahl: float


def jtd_concentration(
    engine: ScenarioRiskEngine, *, top_n: int = 5
) -> JTDConcentration:
    """Jump-to-default concentration of the engine's book.

    Each position's JTD is the P&L of an immediate default:
    ``notional * (LGD - pv)`` — a gain for protection buyers, a loss for
    sellers.  Concentration statistics run over absolute exposures.

    Parameters
    ----------
    engine:
        The revaluation engine (book + base state).
    top_n:
        Positions counted by the ``top_share`` statistic.
    """
    check_count(top_n, "top_n")
    lgd = np.asarray(
        [p.option.loss_given_default for p in engine.portfolio.positions]
    )
    jtd = engine.portfolio.notionals * (lgd - engine.base_pv)
    gross = np.abs(jtd)
    total = float(gross.sum())
    if not total > 0.0:
        raise ValidationError("book has zero gross jump-to-default exposure")
    shares = gross / total
    order = np.argsort(gross)[::-1]
    k = min(top_n, len(jtd))
    return JTDConcentration(
        net=float(jtd.sum()),
        gross=total,
        largest=float(gross[order[0]]),
        largest_index=int(order[0]),
        top_share=float(shares[order[:k]].sum()),
        top_n=k,
        herfindahl=float((shares**2).sum()),
    )
