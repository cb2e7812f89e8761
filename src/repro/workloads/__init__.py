"""Workload construction: rate curves, option portfolios, paper scenario.

``generator``
    Seeded synthetic curves and option portfolios for tests, examples and
    sweeps.
``scenarios``
    :class:`~repro.workloads.scenarios.PaperScenario` — the exact
    experimental configuration of the paper (1024 interest and 1024 hazard
    rates, 5-year quarterly options) together with every calibration
    constant of the performance models, each documented at its definition.
``cluster``
    Scenario-diverse portfolios (uniform / skewed / heterogeneous) for the
    multi-card cluster layer, and the :class:`~repro.workloads.cluster.
    Arrival` record the host batching queue replays.
``history``
    Deterministic synthetic curve histories for the risk subsystem's
    historical-replay scenarios.
``traffic``
    Request arrival processes (Poisson, Markov-modulated bursty, diurnal
    sinusoid) for the live serving layer.
"""

from repro.workloads.cluster import (
    CLUSTER_WORKLOADS,
    Arrival,
    make_cluster_portfolio,
    make_heterogeneous_portfolio,
    make_skewed_portfolio,
    make_uniform_portfolio,
)
from repro.workloads.history import CurveHistory, make_curve_history
from repro.workloads.traffic import (
    TRAFFIC_PROCESSES,
    bursty_arrivals,
    diurnal_arrivals,
    make_arrivals,
    poisson_arrivals,
)
from repro.workloads.generator import (
    WorkloadGenerator,
    make_hazard_curve,
    make_option_portfolio,
    make_yield_curve,
)
from repro.workloads.scenarios import PaperScenario, PAPER_TABLE1, PAPER_TABLE2

__all__ = [
    "WorkloadGenerator",
    "make_yield_curve",
    "make_hazard_curve",
    "make_option_portfolio",
    "PaperScenario",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "Arrival",
    "CLUSTER_WORKLOADS",
    "make_cluster_portfolio",
    "make_uniform_portfolio",
    "make_skewed_portfolio",
    "make_heterogeneous_portfolio",
    "CurveHistory",
    "make_curve_history",
    "TRAFFIC_PROCESSES",
    "poisson_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "make_arrivals",
]
