"""Scenario-diverse workloads for the multi-card cluster layer.

The paper's benchmark batch is perfectly uniform — identical 5-year
quarterly contracts — which is exactly the workload on which every
scheduling policy is equivalent.  The cluster layer exists for the
workloads a production pricing service actually sees, three of which are
generated here:

``skewed``
    Heavy-tailed per-option cost: lognormal maturities, with long contracts
    biased towards monthly payment frequencies, so a few options carry an
    order of magnitude more time points than the median.
``heterogeneous``
    A broad uniform mix of maturities, frequencies and recoveries — the
    realistic "whole book" portfolio.
``uniform``
    The paper's identical benchmark contracts, kept as the control.

Plus the :class:`Arrival` record the host-side batching queue replays
(:meth:`~repro.cluster.batching.BatchQueue.coalesce`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import CDSOption
from repro.core.validation import (
    check_count,
    check_non_negative_finite,
    check_positive_finite,
    check_range,
)
from repro.errors import ValidationError
from repro.workloads.generator import make_option_portfolio

__all__ = [
    "Arrival",
    "make_skewed_portfolio",
    "make_heterogeneous_portfolio",
    "make_uniform_portfolio",
    "make_cluster_portfolio",
    "CLUSTER_WORKLOADS",
]


@dataclass(frozen=True)
class Arrival:
    """One pricing-request batch hitting the host queue.

    Attributes
    ----------
    time_s:
        Arrival time in seconds from the start of the session.
    options:
        The contracts carried by this request.
    """

    time_s: float
    options: list[CDSOption]

    def __post_init__(self) -> None:
        check_non_negative_finite(self.time_s, "time_s")
        if not self.options:
            raise ValidationError("an arrival must carry at least one option")

    @property
    def n_options(self) -> int:
        """Contracts in this request."""
        return len(self.options)


def make_uniform_portfolio(n_options: int, *, seed: int = 0) -> list[CDSOption]:
    """The paper's control workload: identical benchmark contracts.

    Parameters
    ----------
    n_options:
        Portfolio size.
    seed:
        Ignored (uniform portfolios are deterministic); accepted so every
        registry entry shares one signature.
    """
    check_count(n_options, "n_options")
    return [
        CDSOption(maturity=5.0, frequency=4, recovery_rate=0.4)
        for _ in range(n_options)
    ]


def make_skewed_portfolio(
    n_options: int,
    *,
    median_maturity: float = 2.0,
    sigma: float = 0.8,
    max_maturity: float = 9.5,
    seed: int = 7,
) -> list[CDSOption]:
    """A heavy-tailed portfolio: most options cheap, a few very expensive.

    Maturities are lognormal around ``median_maturity`` (clipped to the
    curve span); options beyond five years pay monthly with high
    probability, so the cost tail is steeper than the maturity tail alone.
    This is the workload that separates cost-aware policies from
    round-robin.

    Parameters
    ----------
    n_options:
        Portfolio size.
    median_maturity:
        Median of the lognormal maturity distribution (years).
    sigma:
        Lognormal shape parameter; larger means heavier tail.
    max_maturity:
        Clip ceiling, kept inside the scenario's 10-year curve span.
    seed:
        Deterministic generator seed.
    """
    check_count(n_options, "n_options")
    check_range(median_maturity, "median_maturity", f"(0, {max_maturity:g}]")
    check_positive_finite(sigma, "sigma")
    gen = np.random.default_rng(seed)
    maturities = np.clip(
        np.exp(gen.normal(np.log(median_maturity), sigma, size=n_options)),
        0.25,
        max_maturity,
    )
    recoveries = gen.uniform(0.2, 0.6, size=n_options)
    options = []
    for m, r in zip(maturities, recoveries):
        if m > 5.0 and gen.random() < 0.8:
            freq = 12
        else:
            freq = int(gen.choice([2, 4]))
        options.append(
            CDSOption(maturity=float(m), frequency=freq, recovery_rate=float(r))
        )
    return options


def make_heterogeneous_portfolio(
    n_options: int, *, seed: int = 11
) -> list[CDSOption]:
    """A broad uniform mix of maturities and payment frequencies.

    Parameters
    ----------
    n_options:
        Portfolio size.
    seed:
        Deterministic generator seed.
    """
    return make_option_portfolio(
        n_options,
        maturity_range=(0.5, 9.5),
        frequencies=(1, 2, 4, 12),
        recovery_range=(0.1, 0.6),
        seed=seed,
    )


#: Portfolio generator registry keyed by workload name (CLI ``--workload``).
CLUSTER_WORKLOADS = {
    "uniform": make_uniform_portfolio,
    "skewed": make_skewed_portfolio,
    "heterogeneous": make_heterogeneous_portfolio,
}


def make_cluster_portfolio(
    name: str, n_options: int, *, seed: int | None = None
) -> list[CDSOption]:
    """Build a portfolio from the :data:`CLUSTER_WORKLOADS` registry.

    Parameters
    ----------
    name:
        Registry key (``uniform``, ``skewed``, ``heterogeneous``).
    n_options:
        Portfolio size.
    seed:
        Optional seed override (each generator has its own default).

    Raises
    ------
    ValidationError
        For an unknown workload name.
    """
    try:
        maker = CLUSTER_WORKLOADS[name]
    except KeyError:
        raise ValidationError(
            f"unknown cluster workload {name!r}; "
            f"choose from {sorted(CLUSTER_WORKLOADS)}"
        ) from None
    if seed is None:
        return maker(n_options)
    return maker(n_options, seed=seed)
