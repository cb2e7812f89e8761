"""Deterministic fault injection over the unified simulation clock.

``repro.faults`` makes failure a modelled dimension of the stack:

* :mod:`~repro.faults.plan` — seeded :class:`FaultPlan` composed of
  card crashes (permanent or with repair), straggler slowdowns,
  host-link degradation/outage, and correlated multi-card failures,
  plus the compact ``--faults`` spec grammar;
* :mod:`~repro.faults.health` — :class:`ClusterHealth`, the pure
  availability oracle dispatchers consult (healthy cards, mid-window
  crashes, straggler/link factors, degradation gate);
* :mod:`~repro.faults.breaker` — per-card closed/open/half-open
  :class:`CircuitBreaker` and the :class:`BreakerBank`;
* :mod:`~repro.faults.retry` — :class:`RetryPolicy` (capped exponential
  backoff, full seeded jitter) and :class:`HedgePolicy` (duplicate the
  slowest straggling shard);
* :mod:`~repro.faults.report` — :class:`FaultReport` with per-phase
  goodput/p99, recovery time, and the duplicate-work ratio.

The contract with the rest of the repo: a fault-free run *is* the empty
plan (``faults=None`` means ``FaultPlan()``).  Serving and the risk grid
have one dispatch path each, and under the empty plan it reproduces the
committed goldens byte for byte.
"""

from repro.faults.breaker import BreakerBank, CircuitBreaker
from repro.faults.health import ClusterHealth
from repro.faults.plan import (
    CardCrash,
    CardSlowdown,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
    correlated_crash,
)
from repro.faults.report import (
    FaultCounters,
    FaultReport,
    PhaseStats,
    build_fault_report,
)
from repro.faults.retry import HedgePolicy, RetryPolicy

__all__ = [
    "CardCrash",
    "CardSlowdown",
    "LinkDegradation",
    "LinkOutage",
    "FaultPlan",
    "correlated_crash",
    "ClusterHealth",
    "CircuitBreaker",
    "BreakerBank",
    "RetryPolicy",
    "HedgePolicy",
    "FaultCounters",
    "PhaseStats",
    "FaultReport",
    "build_fault_report",
]
