"""Portfolio scenario risk on top of the cluster: the overnight batch.

The paper motivates its FPGA CDS engines with "batch processing of
financial data on HPC machines, for instance overnight" — the workload a
risk desk runs: revalue the whole book under thousands of shocked market
states and aggregate the P&L cloud into VaR/ES, sensitivity ladders and
concentration numbers.  This package turns the PR-1 cluster into exactly
that engine, in three layers:

``scenarios``
    Shocked market states: parallel and tenor-bucketed curve shocks,
    recovery shocks, historical replay, and a seeded correlated Monte
    Carlo generator (Cholesky over tenor buckets, optional regime
    mixture).
``engine`` / ``tensor`` / ``sharding``
    :class:`~repro.risk.engine.ScenarioRiskEngine` — opens one
    :class:`~repro.api.PricingSession` on any legs-capable backend (the
    book is bound/packed once), lowers the scenario set into a dense
    :class:`~repro.risk.tensor.ScenarioTensor` and reprices the whole
    ``(scenarios x options x timepoints)`` grid with one batched kernel
    call per card shard (per-scenario looping stays available behind
    ``batch=False`` and for non-batch backends, bit-identical), shards
    the grid across simulated cluster cards (reusing the cluster
    schedulers, host-link contention and batching queue) and reports the
    run's simulated throughput and power.
``measures``
    VaR/ES at configurable confidences, bucketed CS01/IR01 ladders
    reconciling to the parallel sensitivities, and jump-to-default
    concentration.
"""

from repro.risk.engine import (
    Portfolio,
    Position,
    ScenarioRevaluation,
    ScenarioRiskEngine,
    make_book,
)
from repro.risk.measures import (
    CS01_HAZARD_BUMP,
    JTDConcentration,
    LadderEntry,
    SensitivityLadder,
    TailMeasure,
    cs01_ladder,
    expected_shortfall,
    ir01_ladder,
    jtd_concentration,
    tail_measures,
    value_at_risk,
)
from repro.risk.scenarios import (
    CALM_STRESSED_REGIMES,
    DEFAULT_TENOR_EDGES,
    Regime,
    Scenario,
    ScenarioSet,
    bucketed_shocks,
    historical_replay,
    monte_carlo,
    parallel_shocks,
    recovery_shocks,
    tenor_buckets,
)
from repro.risk.sharding import (
    CardShard,
    ClusterTiming,
    simulate_grid_run,
)
from repro.risk.tensor import ScenarioTensor

__all__ = [
    "Scenario",
    "ScenarioSet",
    "Regime",
    "CALM_STRESSED_REGIMES",
    "DEFAULT_TENOR_EDGES",
    "tenor_buckets",
    "parallel_shocks",
    "bucketed_shocks",
    "recovery_shocks",
    "historical_replay",
    "monte_carlo",
    "Position",
    "Portfolio",
    "make_book",
    "ScenarioRiskEngine",
    "ScenarioRevaluation",
    "ScenarioTensor",
    "CardShard",
    "ClusterTiming",
    "simulate_grid_run",
    "TailMeasure",
    "tail_measures",
    "value_at_risk",
    "expected_shortfall",
    "LadderEntry",
    "SensitivityLadder",
    "cs01_ladder",
    "ir01_ladder",
    "CS01_HAZARD_BUMP",
    "jtd_concentration",
    "JTDConcentration",
]
