"""The scenario risk engine: cluster-sharded bump-and-reprice.

:class:`ScenarioRiskEngine` reprices a :class:`Portfolio` of CDS positions
under every scenario of a :class:`~repro.risk.scenarios.ScenarioSet`.  All
pricing flows through the unified API (:mod:`repro.api`): the engine opens
one :class:`~repro.api.PricingSession` on the backend it is given (default
``vectorized``), which binds the book once.  A generated scenario set is a
dense :class:`~repro.risk.tensor.ScenarioTensor` (a tuple is lowered to
one), and the ``(scenarios x options x timepoints)`` grid is priced by one
:meth:`~repro.api.PricingBackend.price_rows` call per card shard.

Capability negotiation chooses the execution shape: when the session's
backend advertises ``supports_batch_tensor`` (and ``batch`` is on), each
card shard is one batched kernel call; otherwise — ``batch=False``, a
non-batch backend such as ``cpu``, or hand-built scenario sets that
mix knot grids and cannot be lowered to a tensor — the engine walks the
per-scenario path, one session state call per scenario.  Both paths are
pinned **bit-identical** by the property suite, so ``batch`` and the
backend choice are purely throughput knobs.

The scenario grid is sharded across simulated cluster cards
(:mod:`repro.risk.sharding`); each card revalues its own scenario chunk,
the rows scatter back in scenario order, and the run reports the cluster's
simulated throughput and power next to the risk numbers.  Sharding never
changes the measures — only the timing roll-up.

Positions are signed: a positive notional is a protection *buyer* (the
viewpoint of :mod:`repro.core.risk`), a negative notional a protection
*seller*.  Contract spreads default to par at the base state, making base
P&L zero and every scenario P&L a pure revaluation move.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.api import PricingBackend, open_session
from repro.api.protocol import buyer_pv, tensor_row_indices
from repro.cluster.batching import BatchQueue
from repro.cluster.interconnect import HostLinkModel
from repro.cluster.scheduler import (
    ClusterScheduler,
    make_scheduler,
    shard_scenarios,
)
from repro.core.curves import HazardCurve, YieldCurve
from repro.core.pricing import BASIS_POINTS
from repro.core.types import CDSOption
from repro.core.vector_pricing import InvalidAnnuityError, shifted_recovery_row
from repro.errors import ValidationError
from repro.risk.scenarios import Scenario, ScenarioSet
from repro.risk.tensor import ScenarioTensor
from repro.risk.sharding import ClusterTiming, simulate_grid_run
from repro.workloads.cluster import make_cluster_portfolio
from repro.workloads.scenarios import PaperScenario

__all__ = [
    "Position",
    "Portfolio",
    "make_book",
    "ScenarioRevaluation",
    "ScenarioRiskEngine",
]


@dataclass(frozen=True)
class Position:
    """One signed CDS position.

    Attributes
    ----------
    option:
        The contract.
    notional:
        Signed size: positive buys protection, negative sells it.
    contract_spread_bps:
        The contracted running spread; ``None`` means "par at the base
        state", resolved when an engine is built.
    """

    option: CDSOption
    notional: float = 1.0
    contract_spread_bps: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.notional) or self.notional == 0.0:
            raise ValidationError(
                f"notional must be finite and non-zero, got {self.notional}"
            )
        if self.contract_spread_bps is not None and (
            not math.isfinite(self.contract_spread_bps)
            or self.contract_spread_bps < 0.0
        ):
            raise ValidationError(
                f"contract_spread_bps must be >= 0, got {self.contract_spread_bps}"
            )

    @property
    def is_buyer(self) -> bool:
        """Whether the position is long protection."""
        return self.notional > 0


class Portfolio:
    """An ordered, non-empty book of positions.

    Parameters
    ----------
    positions:
        The book; order is preserved in every per-position output.
    """

    def __init__(self, positions: Sequence[Position]) -> None:
        pos = tuple(positions)
        if not pos:
            raise ValidationError("portfolio must hold at least one position")
        self.positions = pos

    @classmethod
    def from_options(
        cls,
        options: Sequence[CDSOption],
        notionals: Sequence[float] | None = None,
        contract_spreads_bps: Sequence[float | None] | None = None,
    ) -> "Portfolio":
        """Build a book from parallel option/notional/spread sequences."""
        opts = list(options)
        n = len(opts)
        if notionals is None:
            notionals = [1.0] * n
        if contract_spreads_bps is None:
            contract_spreads_bps = [None] * n
        if len(notionals) != n or len(contract_spreads_bps) != n:
            raise ValidationError(
                "options, notionals and contract_spreads_bps must have equal "
                f"lengths, got {n}, {len(notionals)}, {len(contract_spreads_bps)}"
            )
        return cls(
            [
                Position(option=o, notional=float(w), contract_spread_bps=s)
                for o, w, s in zip(opts, notionals, contract_spreads_bps)
            ]
        )

    def __len__(self) -> int:
        return len(self.positions)

    def __iter__(self) -> Iterator[Position]:
        return iter(self.positions)

    @property
    def options(self) -> list[CDSOption]:
        """The contracts, in book order."""
        return [p.option for p in self.positions]

    @property
    def notionals(self) -> np.ndarray:
        """Signed notionals as a float64 array."""
        return np.asarray([p.notional for p in self.positions], dtype=np.float64)

    @property
    def gross_notional(self) -> float:
        """Sum of absolute notionals."""
        return float(np.abs(self.notionals).sum())


def make_book(
    workload: str = "heterogeneous",
    n_positions: int = 64,
    *,
    seed: int = 23,
    buyer_fraction: float = 0.7,
) -> Portfolio:
    """A seeded signed book over a cluster-workload contract mix.

    Contracts come from the :data:`~repro.workloads.cluster.
    CLUSTER_WORKLOADS` registry; notionals are lognormal (a few large
    tickets dominate, as on a real desk) and each position buys protection
    with probability ``buyer_fraction``, otherwise sells it.

    Parameters
    ----------
    workload:
        Contract-mix registry key (``uniform``, ``skewed``,
        ``heterogeneous``).
    n_positions:
        Book size.
    seed:
        Deterministic seed for both the contract mix and the notionals.
    buyer_fraction:
        Probability a position is long protection.
    """
    if not 0.0 <= buyer_fraction <= 1.0:
        raise ValidationError(
            f"buyer_fraction must be in [0, 1], got {buyer_fraction}"
        )
    options = make_cluster_portfolio(workload, n_positions, seed=seed)
    gen = np.random.default_rng(seed + 1)
    sizes = gen.lognormal(mean=0.0, sigma=0.75, size=n_positions)
    signs = np.where(gen.random(n_positions) < buyer_fraction, 1.0, -1.0)
    return Portfolio.from_options(options, notionals=sizes * signs)


@dataclass(frozen=True)
class ScenarioRevaluation:
    """Full revaluation of one portfolio under one scenario set.

    Attributes
    ----------
    scenario_set:
        The scenarios that were repriced.
    base_pv:
        ``(n_positions,)`` unit-notional buyer PVs at the base state.
    pv:
        ``(n_scenarios, n_positions)`` unit-notional buyer PVs per
        scenario.
    pnl:
        ``(n_scenarios,)`` notional-weighted portfolio P&L against base.
    notionals:
        Signed position notionals (book order).
    timing:
        Simulated cluster roll-up for the run, or ``None`` when the run
        skipped the timing simulation.
    """

    scenario_set: ScenarioSet
    base_pv: np.ndarray
    pv: np.ndarray
    pnl: np.ndarray
    notionals: np.ndarray
    timing: ClusterTiming | None

    @property
    def n_scenarios(self) -> int:
        """Scenarios repriced."""
        return self.pv.shape[0]

    @property
    def position_pnl(self) -> np.ndarray:
        """``(n_scenarios, n_positions)`` notional-weighted P&L."""
        return (self.pv - self.base_pv[None, :]) * self.notionals[None, :]

    def worst(self) -> tuple[str, float]:
        """Label and P&L of the worst scenario."""
        i = int(np.argmin(self.pnl))
        return self.scenario_set.labels[i], float(self.pnl[i])

    def best(self) -> tuple[str, float]:
        """Label and P&L of the best scenario."""
        i = int(np.argmax(self.pnl))
        return self.scenario_set.labels[i], float(self.pnl[i])


class ScenarioRiskEngine:
    """Portfolio revaluation under scenario sets, sharded across cards.

    Parameters
    ----------
    portfolio:
        The signed book to revalue.
    yield_curve / hazard_curve:
        Base market state (default: the scenario's paper curves).
    scenario:
        Experimental configuration backing the simulated cluster timing
        (default :class:`~repro.workloads.scenarios.PaperScenario`).
    n_cards / n_engines / scheduler / link / queue:
        Cluster shape for the grid sharding; see
        :mod:`repro.risk.sharding`.
    batch:
        Default revaluation mode: ``True`` prices each card's scenario
        shard with the batched tensor kernel, ``False`` loops scenario by
        scenario.  Overridable per :meth:`revalue` call; the numbers are
        bit-identical either way.
    chunk_size:
        Default cap on scenarios per kernel invocation inside a card's
        shard (bounds peak memory); ``None`` lets the kernel pick a
        cache-sized chunk automatically.
    backend:
        Pricing backend the engine's session binds: a registry name
        (``vectorized``, ``cpu``, ...) or an unbound
        :class:`~repro.api.PricingBackend` instance.  Must advertise
        ``supports_legs`` (PVs are leg-derived).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle, installed
        on the engine's session and handed to the timing roll-up.
        Default: the process-wide no-op handle.

    Examples
    --------
    >>> from repro.risk import make_book, monte_carlo
    >>> from repro.workloads.scenarios import PaperScenario
    >>> sc = PaperScenario(n_rates=64)
    >>> engine = ScenarioRiskEngine(make_book(n_positions=4), n_cards=2,
    ...                             scenario=sc)
    >>> shocks = monte_carlo(engine.yield_curve, engine.hazard_curve, 8, seed=1)
    >>> engine.revalue(shocks, with_timing=False).pnl.shape
    (8,)
    """

    def __init__(
        self,
        portfolio: Portfolio,
        yield_curve: YieldCurve | None = None,
        hazard_curve: HazardCurve | None = None,
        *,
        scenario: PaperScenario | None = None,
        n_cards: int = 1,
        n_engines: int = 5,
        scheduler: ClusterScheduler | str = "least-loaded",
        link: HostLinkModel | None = None,
        queue: BatchQueue | None = None,
        batch: bool = True,
        chunk_size: int | None = None,
        backend: str | PricingBackend = "vectorized",
        telemetry=None,
    ) -> None:
        if n_cards < 1:
            raise ValidationError(f"n_cards must be >= 1, got {n_cards}")
        if chunk_size is not None and chunk_size < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        self.portfolio = portfolio
        self.scenario = scenario if scenario is not None else PaperScenario()
        self.yield_curve = (
            yield_curve if yield_curve is not None else self.scenario.yield_curve()
        )
        self.hazard_curve = (
            hazard_curve if hazard_curve is not None else self.scenario.hazard_curve()
        )
        self.n_cards = n_cards
        self.n_engines = n_engines
        self.scheduler = (
            make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
        )
        self.link = link
        self.queue = queue
        self.batch = batch
        self.chunk_size = chunk_size

        # The backend binds (packs) the book once, and supports_legs is
        # checked here once for every pricing call below.
        self.session = open_session(
            backend, portfolio.options, telemetry=telemetry
        ).require("supports_legs", reason="risk revaluation")
        self._notionals = portfolio.notionals
        self._base_recovery = np.asarray(
            [p.option.recovery_rate for p in portfolio.positions],
            dtype=np.float64,
        )
        self._spreads_bps = self._resolve_contract_spreads()
        self._unit_spread = self._spreads_bps / BASIS_POINTS
        self._base_pv = self._unit_pv(
            self.yield_curve, self.hazard_curve, recovery_shift=0.0
        )

    # ------------------------------------------------------------------
    def _resolve_contract_spreads(self) -> np.ndarray:
        """Contract spreads with ``None`` entries resolved to base par."""
        par = self.session.spreads(self.yield_curve, self.hazard_curve)
        given = np.asarray(
            [
                np.nan if p.contract_spread_bps is None else p.contract_spread_bps
                for p in self.portfolio.positions
            ],
            dtype=np.float64,
        )
        return np.where(np.isnan(given), par, given)

    def _unit_pv(
        self,
        yield_curve: YieldCurve,
        hazard_curve: HazardCurve,
        *,
        recovery_shift: float,
    ) -> np.ndarray:
        """Unit-notional buyer PVs under one market state."""
        recovery = shifted_recovery_row(self._base_recovery, recovery_shift)
        result = self.session.price_state(
            yield_curve, hazard_curve, recovery=recovery, want_legs=True
        )
        return result.legs.buyer_pv(self._unit_spread)[0]

    def quote_rows(
        self,
        tensor: ScenarioTensor,
        indices: np.ndarray | Sequence[int],
        *,
        chunk_size: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Par spreads *and* unit PVs for a batch of tensor rows.

        One :meth:`~repro.api.PricingBackend.price_rows` call on the
        session's backend prices ``indices``'s market states against the
        bound book — **one** batched kernel call on the ``vectorized``
        backend, no request object — and returns both quote surfaces:
        ``(spreads_bps, unit_pv)``, each of shape ``(len(indices),
        n_positions)``.  Card sharding is timing-only and happens
        elsewhere (:meth:`revalue`, the serving dispatcher).  The
        ``supports_legs`` capability was checked once, when the engine
        opened its session.  The quote server fills its table of the
        tape through this call.

        Parameters
        ----------
        tensor:
            The lowered market states (e.g. a live market tape).
        indices:
            Tensor rows to price, in output order: 1-D integers in
            range.
        chunk_size:
            Scenarios per internal kernel chunk (``None`` = automatic).

        Raises
        ------
        InvalidAnnuityError
            When the backend reports cells with an invalid risky annuity
            (the ``vectorized`` kernel does); its :attr:`result` is
            ``(spreads_bps, unit_pv)`` for every row.
        """
        idx = tensor_row_indices(indices, tensor.n_scenarios)
        try:
            spreads, legs = self.session.backend.price_rows(
                tensor, idx, chunk_size=chunk_size
            )
        except InvalidAnnuityError as err:
            spreads, legs = err.result
            err.result = (spreads, self._buyer_pv(legs))
            raise
        return spreads, self._buyer_pv(legs)

    def _buyer_pv(self, legs: tuple[np.ndarray, ...]) -> np.ndarray:
        """Unit buyer PVs from ``price_rows`` legs."""
        premium, protection, accrual, _ = legs
        return buyer_pv(protection, premium, accrual, self._unit_spread)

    def _grid_timing(
        self, assignment: list[list[int]], faults=None
    ) -> ClusterTiming:
        """Simulated cluster roll-up for a sharded scenario assignment."""
        from repro.telemetry import NULL_TELEMETRY

        telemetry = self.session.telemetry
        return simulate_grid_run(
            assignment,
            self.portfolio.options,
            self.yield_curve,
            self.hazard_curve,
            scenario=self.scenario,
            policy=self.scheduler.name,
            n_engines=self.n_engines,
            link=self.link,
            queue=self.queue,
            telemetry=None if telemetry is NULL_TELEMETRY else telemetry,
            faults=faults,
        )

    def simulate_timing(self, n_scenarios: int, *, faults=None) -> ClusterTiming:
        """Simulated cluster timing for an ``n_scenarios`` grid, without
        pricing anything.

        Identical to the ``timing`` attached by :meth:`revalue` for a
        scenario set of the same size (the simulation depends only on
        the grid shape and cluster configuration, and the schedulers are
        deterministic).  Lets callers time the host-side numerics
        separately from the discrete-event simulation.

        Parameters
        ----------
        n_scenarios:
            Grid size to shard and time.
        faults:
            Optional :class:`~repro.faults.FaultPlan` injected into the
            timing replay; numerics are unaffected (nothing is priced).
        """
        return self._grid_timing(
            shard_scenarios(n_scenarios, self.n_cards, self.scheduler),
            faults=faults,
        )

    # ------------------------------------------------------------------
    @property
    def base_pv(self) -> np.ndarray:
        """Unit-notional buyer PVs at the base state (book order)."""
        return self._base_pv.copy()

    @property
    def contract_spreads_bps(self) -> np.ndarray:
        """Resolved contract spreads (par where the position left ``None``)."""
        return self._spreads_bps.copy()

    def revalue(
        self,
        scenario_set: ScenarioSet,
        *,
        with_timing: bool = True,
        batch: bool | None = None,
        chunk_size: int | None = None,
    ) -> ScenarioRevaluation:
        """Reprice the book under every scenario of ``scenario_set``.

        The scenario grid is sharded across the engine's cards; each card
        revalues its chunk and the rows scatter back in scenario order, so
        results are identical for any card count or policy.

        With ``batch`` on (the default) and a ``supports_batch_tensor``
        backend behind the session, the set's
        :class:`~repro.risk.tensor.ScenarioTensor` (a tuple of scenarios is
        lowered to one first) is priced with one backend call per card shard
        (via :meth:`quote_rows`, sub-chunked by ``chunk_size`` to bound
        memory; each shard's leg surfaces reduce to PVs before the next
        shard prices) — shard boundaries double as chunk boundaries, so the
        per-card timing simulation is untouched.  Scenario sets that mix
        knot grids, ``batch=False`` and non-batch backends all fall back to
        the per-scenario loop automatically (capability negotiation).  Every
        path produces bit-identical numbers.

        Parameters
        ----------
        scenario_set:
            The scenarios to reprice.
        with_timing:
            When false, skip the simulated cluster timing (used by ladder
            computations, which only need the numerics).
        batch:
            Override the engine's default batch mode for this call.
        chunk_size:
            Override the engine's default kernel chunk size for this call.
        """
        n = len(scenario_set)
        use_batch = self.batch if batch is None else batch
        chunk_size = self.chunk_size if chunk_size is None else chunk_size
        # Capability negotiation: the tensor path needs both a loweable
        # scenario set and a batch-capable backend behind the session.
        tensor = (
            ScenarioTensor.try_pack(scenario_set)
            if use_batch and self.session.capabilities.supports_batch_tensor
            else None
        )
        # One card plan (the one the timing simulation replays) for both
        # paths.  The batched path makes one backend call per card shard
        # with the legs reduced to PVs shard by shard, so only one
        # shard's leg surfaces are ever in flight on large grids.
        assignment = shard_scenarios(n, self.n_cards, self.scheduler)
        pv = np.empty((n, len(self.portfolio)), dtype=np.float64)
        for chunk in filter(None, assignment):
            if tensor is not None:
                idx = np.asarray(chunk, dtype=np.intp)
                pv[idx] = self.quote_rows(
                    tensor, idx, chunk_size=chunk_size
                )[1]
                continue
            for i in chunk:
                s: Scenario = scenario_set.scenarios[i]
                pv[i] = self._unit_pv(
                    s.yield_curve,
                    s.hazard_curve,
                    recovery_shift=s.recovery_shift,
                )
        pnl = (pv - self._base_pv[None, :]) @ self._notionals

        timing = self._grid_timing(assignment) if with_timing else None
        return ScenarioRevaluation(
            scenario_set=scenario_set,
            base_pv=self._base_pv.copy(),
            pv=pv,
            pnl=pnl,
            notionals=self._notionals.copy(),
            timing=timing,
        )
