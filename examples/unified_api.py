#!/usr/bin/env python
"""Unified pricing API: one session, three backends, identical numbers.

Walks the PR-5 surface: open a session on each registered backend, price
the same book, batch a scenario tensor through the vectorized backend,
and register a toy custom backend that immediately works everywhere.

Run:  python examples/unified_api.py
"""

import numpy as np

from repro import PaperScenario
from repro.api import (
    BackendCapabilities,
    PriceResult,
    PricingBackend,
    available_backends,
    open_session,
    register_backend,
    unregister_backend,
)
from repro.risk import monte_carlo


def main() -> None:
    scenario = PaperScenario(n_rates=64, n_options=8)
    options = scenario.options()
    yc, hc = scenario.yield_curve(), scenario.hazard_curve()

    # ------------------------------------------------------------------
    # 1. The registry: every execution target behind one protocol.
    # ------------------------------------------------------------------
    print("== Registered backends ==")
    print("  " + ", ".join(available_backends()))

    # ------------------------------------------------------------------
    # 2. One request shape, every backend; the numbers agree.
    # ------------------------------------------------------------------
    print("\n== Same book, same state, every backend ==")
    config = {"dataflow": {"scenario": scenario}}
    spreads = {}
    for name in available_backends():
        with open_session(name, options, **config.get(name, {})) as session:
            spreads[name] = session.spreads(yc, hc)
            caps = session.capabilities
            flags = "".join(
                "x" if flag else "-"
                for flag in (
                    caps.supports_batch_tensor,
                    caps.supports_streaming,
                    caps.supports_legs,
                    caps.simulated_timing,
                )
            )
            print(
                f"  {name:<12} [tensor/stream/legs/simt {flags}] "
                f"first spread {spreads[name][0]:.6f} bps"
            )
    worst = max(
        float(np.max(np.abs(spreads[n] - spreads["cpu"]))) for n in spreads
    )
    print(f"  max deviation from the scalar reference: {worst:.2e} bps")

    # ------------------------------------------------------------------
    # 3. Tensor batching: one call prices a whole Monte-Carlo scenario
    #    grid in the packed kernels.
    # ------------------------------------------------------------------
    print("\n== Scenario tensor through vectorized ==")
    shocks = monte_carlo(yc, hc, 5_000, seed=7)
    with open_session("vectorized", options) as session:
        surface = session.price_tensor(shocks.tensor, want_legs=True)
    print(f"  spread surface {surface.spreads_bps.shape}")
    pv = surface.legs.buyer_pv(np.zeros(len(options)))
    print(f"  zero-spread buyer PV of option 0, scenario 0: {pv[0, 0]:.6f}")

    # ------------------------------------------------------------------
    # 4. A custom backend is a registry entry, not a fork.
    # ------------------------------------------------------------------
    print("\n== Registering a toy custom backend ==")

    class MidpointBackend(PricingBackend):
        """Quotes the midpoint of the book's min/max reference spreads."""

        name = "midpoint"
        capabilities = BackendCapabilities(
            supports_batch_tensor=False,
            supports_streaming=False,
            supports_legs=False,
            simulated_timing=False,
            description="toy example backend",
        )

        def price_state(self, yield_curve, hazard_curve, **_) -> PriceResult:
            from repro.core.pricing import CDSPricer

            pricer = CDSPricer(
                yield_curve=yield_curve, hazard_curve=hazard_curve
            )
            ref = np.asarray(
                [pricer.price(o).spread_bps for o in self.options]
            )
            mid = 0.5 * (ref.min() + ref.max())
            return PriceResult(
                backend=self.name,
                spreads_bps=np.full((1, self.n_options), mid),
            )

    register_backend("midpoint", MidpointBackend)
    try:
        with open_session("midpoint", options) as session:
            print(f"  midpoint quote: {session.spreads(yc, hc)[0]:.6f} bps")
            # No batch kernel: the default price_rows prices a 3-row
            # tensor with three price_state calls.
            small = monte_carlo(yc, hc, 3, seed=1)
            result = session.price_tensor(small.tensor)
            print(
                "  tensor rows, one state at a time: "
                f"{result.spreads_bps.shape}"
            )
    finally:
        unregister_backend("midpoint")
    print("  unregistered; registry restored")


if __name__ == "__main__":
    main()
