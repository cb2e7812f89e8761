"""Scenario VaR walkthrough: the overnight risk batch on the cluster.

Builds a signed CDS book, draws a correlated Monte Carlo scenario set
with a calm/stressed regime mixture, reprices the book under every
scenario sharded across four simulated cluster cards, and prints the
P&L distribution, VaR/ES, sensitivity ladders and the cluster's
simulated throughput for the run.

Run with: ``PYTHONPATH=src python examples/scenario_var.py``
"""

from __future__ import annotations

import numpy as np

from repro.risk import (
    CALM_STRESSED_REGIMES,
    ScenarioRiskEngine,
    cs01_ladder,
    ir01_ladder,
    jtd_concentration,
    make_book,
    monte_carlo,
    tail_measures,
)
from repro.workloads.scenarios import PaperScenario


def main() -> None:
    scenario = PaperScenario(n_options=64)
    book = make_book("heterogeneous", scenario.n_options, seed=7)
    engine = ScenarioRiskEngine(
        book,
        scenario=scenario,
        n_cards=4,
        scheduler="least-loaded",
    )
    print(
        f"book: {len(book)} positions, gross notional "
        f"{book.gross_notional:,.2f}, "
        f"{sum(p.is_buyer for p in book)} buyers / "
        f"{sum(not p.is_buyer for p in book)} sellers"
    )

    shocks = monte_carlo(
        engine.yield_curve,
        engine.hazard_curve,
        2000,
        seed=7,
        regimes=CALM_STRESSED_REGIMES,
        recovery_vol=0.02,
    )
    rev = engine.revalue(shocks)

    print(f"\nscenario P&L over {rev.n_scenarios} draws:")
    print(f"  mean {rev.pnl.mean():+.6f}, std {rev.pnl.std():.6f}")
    worst_label, worst = rev.worst()
    print(f"  worst {worst:+.6f} ({worst_label})")

    stressed = np.array([label.endswith(":stressed") for label in shocks.labels])
    print(
        f"  stressed-regime share of the 5% tail: "
        f"{stressed[np.argsort(rev.pnl)[: len(shocks) // 20]].mean():.0%}"
    )

    print("\ntail measures:")
    for m in tail_measures(rev.pnl, (0.95, 0.99)):
        print(f"  {m.confidence:.0%}: VaR {m.var:.6f}  ES {m.es:.6f}")

    print()
    print(cs01_ladder(engine).render())
    print(ir01_ladder(engine).render())

    conc = jtd_concentration(engine)
    print(
        f"\nJTD concentration: gross {conc.gross:.2f}, top-{conc.top_n} share "
        f"{conc.top_share:.0%}, HHI {conc.herfindahl:.3f}"
    )
    print(f"\ncluster roll-up: {rev.timing.summary()}")


if __name__ == "__main__":
    main()
