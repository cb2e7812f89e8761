"""Backend-conformance suite: every registered backend meets the contract.

One parametrised pass over ``repro.api.available_backends()`` checks, for
each backend:

* spreads are **bit-identical** to the backend's designated reference
  implementation (the pre-redesign entry point it wraps: the scalar
  pricer loop for ``cpu``, ``price_packed_book`` for ``vectorized``,
  the engine's direct ``run()`` for ``dataflow``);
* spreads match the scalar reference pricer — the repository's ground
  truth — up to bounded floating-point reassociation (the padded vector
  kernels re-associate the leg sums; the repo-wide doctrine since PR 0);
* capability flags are honoured: each backend's ``price_rows`` equals
  the session's ``price_tensor`` and a per-state loop, batched or not,
  leg surfaces exist iff ``supports_legs``, ``supports_streaming``
  decides whether the quote server accepts the backend,
  ``simulated_timing`` backends attach their timing metadata;
* repeated identical calls are bit-identically deterministic.

New backends registered via :func:`repro.api.register_backend`
automatically join this suite.  A backend that implements only
``price_state`` serves the risk and serving layers through the default
``price_rows`` exactly as ``vectorized`` does.
"""

import numpy as np
import pytest

from repro.api import (
    BackendCapabilities,
    LegSurfaces,
    PriceResult,
    PricingBackend,
    available_backends,
    create_backend,
    open_session,
)
from repro.core.pricing import CDSPricer
from repro.core.vector_pricing import PackedPortfolio, price_packed_book
from repro.errors import CapabilityError
from repro.risk.engine import make_book
from repro.risk.scenarios import monte_carlo
from repro.serving.engine import QuoteServer
from repro.serving.workload import make_market_tape, make_request_stream
from repro.workloads.scenarios import PaperScenario

SC = PaperScenario(n_rates=48, n_options=5)
YC = SC.yield_curve()
HC = SC.hazard_curve()

#: Per-backend construction config keeping the suite fast.
BACKEND_CONFIG = {"dataflow": {"scenario": SC}}


def make_session(name, options):
    return open_session(name, options, **BACKEND_CONFIG.get(name, {}))


@pytest.fixture(params=sorted(available_backends()))
def backend_name(request):
    return request.param


def reference_spreads(options, yc=YC, hc=HC):
    pricer = CDSPricer(yield_curve=yc, hazard_curve=hc)
    return np.asarray(
        [pricer.price(o).spread_bps for o in options], dtype=np.float64
    )


#: Each backend's pre-redesign entry point, for the bit-identity pin.
def _pre_redesign_spreads(backend_name, options):
    if backend_name == "cpu":
        return reference_spreads(options)
    if backend_name == "vectorized":
        from repro.core.vector_pricing import (
            PackedPortfolio,
            price_packed_book,
        )

        spreads, _ = price_packed_book(
            PackedPortfolio.pack(options), YC, HC, want_legs=False
        )
        return spreads
    if backend_name == "dataflow":
        from repro.engines import VectorizedDataflowEngine

        return VectorizedDataflowEngine(SC).run(options, YC, HC).spreads_bps
    pytest.skip(f"no pre-redesign reference for backend {backend_name!r}")


class TestSpreadConformance:
    def test_bit_identical_to_pre_redesign_entry_point(
        self, backend_name, mixed_options
    ):
        with make_session(backend_name, mixed_options) as session:
            spreads = session.spreads(YC, HC)
        np.testing.assert_array_equal(
            spreads, _pre_redesign_spreads(backend_name, mixed_options)
        )

    def test_matches_scalar_ground_truth(self, backend_name, mixed_options):
        with make_session(backend_name, mixed_options) as session:
            spreads = session.spreads(YC, HC)
        ref = reference_spreads(mixed_options)
        np.testing.assert_allclose(spreads, ref, rtol=1e-12)

    def test_deterministic_across_calls(self, backend_name, mixed_options):
        with make_session(backend_name, mixed_options) as session:
            a = session.spreads(YC, HC)
            b = session.spreads(YC, HC)
        np.testing.assert_array_equal(a, b)

    def test_result_shape_and_finiteness(self, backend_name, mixed_options):
        with make_session(backend_name, mixed_options) as session:
            result = session.price_state(YC, HC)
        assert result.n_states == 1
        assert result.n_options == len(mixed_options)
        assert result.spreads_bps.shape == (1, len(mixed_options))
        assert np.all(np.isfinite(result.spreads_bps))
        assert np.all(result.spreads_bps > 0)


class TestCapabilityFlags:
    def test_tensor_requests_honour_batch_flag(self, backend_name):
        """Tensor batches work on every backend — batched in one call or
        priced per state — and the numbers never depend on which."""
        options = make_book("heterogeneous", 4, seed=11).options
        shocks = monte_carlo(YC, HC, 6, seed=5)
        tensor = shocks.tensor
        with make_session(backend_name, options) as session:
            batched = session.price_tensor(tensor)
            # The per-state reference: one state call per row.
            rows = [
                session.price_state(
                    s.yield_curve, s.hazard_curve
                ).spreads_bps[0]
                for s in shocks
            ]
            # The backend's own entry point prices the same numbers.
            direct, _ = session.backend.price_rows(
                tensor, np.arange(len(shocks))
            )
        np.testing.assert_array_equal(direct, batched.spreads_bps)
        np.testing.assert_array_equal(batched.spreads_bps, np.vstack(rows))

    def test_tensor_row_selection_preserves_order(self, backend_name):
        options = make_book("uniform", 3, seed=2).options
        tensor = monte_carlo(YC, HC, 8, seed=9).tensor
        with make_session(backend_name, options) as session:
            full = session.price_tensor(tensor)
            picked = session.price_tensor(tensor, rows=[5, 0, 3])
        np.testing.assert_array_equal(
            picked.spreads_bps, full.spreads_bps[[5, 0, 3]]
        )

    def test_legs_flag(self, backend_name, mixed_options):
        with make_session(backend_name, mixed_options) as session:
            if session.capabilities.supports_legs:
                result = session.price_state(YC, HC, want_legs=True)
                assert result.legs is not None
                surf = result.legs
                assert surf.premium.shape == (1, len(mixed_options))
                assert np.all(surf.annuity > 0)
                pv = surf.buyer_pv(np.zeros(len(mixed_options)))
                np.testing.assert_array_equal(pv, surf.protection)
            else:
                with pytest.raises(CapabilityError):
                    session.price_state(YC, HC, want_legs=True)

    def test_streaming_flag_gates_the_quote_server(self, backend_name):
        book = make_book("uniform", 3, seed=4)
        tape = make_market_tape(YC, HC, 4, seed=8)
        config = BACKEND_CONFIG.get(backend_name, {})
        streaming = create_backend(
            backend_name, **config
        ).capabilities.supports_streaming

        def build():
            return QuoteServer(
                book,
                tape,
                scenario=SC,
                n_cards=2,
                backend=create_backend(backend_name, **config),
            )

        if streaming:
            server = build()
            assert server.engine.session.capabilities.supports_streaming
        else:
            with pytest.raises(CapabilityError, match="supports_streaming"):
                build()

    def test_streaming_gate_fires_even_with_legs(self):
        """The server's own gate must trip for a legs-capable but
        non-streaming backend — not be shadowed by the risk engine's
        supports_legs check."""
        from repro.api import BackendCapabilities, CpuBackend

        class BatchOnlyBackend(CpuBackend):
            name = "batch-only"
            capabilities = BackendCapabilities(
                supports_batch_tensor=False,
                supports_streaming=False,
                supports_legs=True,
                simulated_timing=False,
            )

        backend = BatchOnlyBackend()
        book = make_book("uniform", 3, seed=4)
        tape = make_market_tape(YC, HC, 4, seed=8)
        with pytest.raises(CapabilityError, match="supports_streaming"):
            QuoteServer(book, tape, scenario=SC, backend=backend)
        # Nothing was bound: the backend stays usable for batch work.
        from repro.risk.engine import ScenarioRiskEngine

        engine = ScenarioRiskEngine(book, YC, HC, scenario=SC, backend=backend)
        assert engine.session.capabilities.supports_legs

    def test_streaming_gate_words_its_error_as_require_does(self):
        book = make_book("uniform", 3, seed=4)
        tape = make_market_tape(YC, HC, 4, seed=8)
        with pytest.raises(CapabilityError) as served:
            QuoteServer(
                book,
                tape,
                scenario=SC,
                backend=create_backend("dataflow", scenario=SC),
            )
        with pytest.raises(CapabilityError) as required:
            make_session("dataflow", book.options).require(
                "supports_streaming", reason="the quote server"
            )
        assert str(served.value) == str(required.value)

    def test_simulated_timing_backends_attach_metadata(self, backend_name):
        options = make_book("uniform", 3, seed=6).options
        with make_session(backend_name, options) as session:
            if not session.capabilities.simulated_timing:
                pytest.skip("host-only backend")
            result = session.price_state(YC, HC)
        engine_result = result.meta["engine_result"]
        assert engine_result.kernel_cycles > 0
        assert engine_result.seconds > 0


class PackedStateBackend(PricingBackend):
    """Only ``price_state``, over ``price_packed_book``: tensor rows go
    through the default per-state ``price_rows``."""

    name = "packed-state"

    def __init__(self, batch_tensor: bool) -> None:
        super().__init__()
        self.capabilities = BackendCapabilities(
            supports_batch_tensor=batch_tensor,
            supports_streaming=True,
            supports_legs=True,
            simulated_timing=False,
        )

    def _on_bind(self, options):
        self._packed = PackedPortfolio.pack(options)

    def price_state(
        self, yield_curve, hazard_curve, *, recovery=None, want_legs=False
    ):
        spreads, legs = price_packed_book(
            self._packed,
            yield_curve,
            hazard_curve,
            recovery=recovery,
            want_legs=want_legs,
        )
        n = self.n_options
        return PriceResult(
            backend=self.name,
            spreads_bps=spreads.reshape(1, n),
            legs=LegSurfaces.from_arrays(legs, 1, n) if want_legs else None,
        )


class TestPriceStateAlone:
    @pytest.mark.parametrize("batch_tensor", [False, True])
    def test_serves_like_vectorized(self, batch_tensor):
        """Served responses, revalued P&Ls and quoted rows equal
        ``vectorized``'s bit for bit.  With ``supports_batch_tensor`` set
        the revalue takes the tensor route, so it runs through the default
        ``price_rows`` too; without it, one session state call per
        scenario."""
        book = make_book("heterogeneous", 5, seed=3)
        tape = make_market_tape(YC, HC, 6, seed=8)
        trace = make_request_stream(
            80, rate_hz=20_000.0, n_states=6, n_positions=5, var_rows=3,
            seed=4,
        )
        shocks = monte_carlo(YC, HC, 8, seed=5, recovery_vol=0.05)
        outcomes = []
        for backend in (
            create_backend("vectorized"),
            PackedStateBackend(batch_tensor),
        ):
            server = QuoteServer(book, tape, scenario=SC, n_cards=2,
                                 backend=backend)
            served = server.serve(trace)
            engine = server.engine
            outcomes.append((
                served.responses,
                engine.revalue(shocks, with_timing=False).pnl,
                engine.quote_rows(tape, [5, 0, 3]),
            ))
        (ref_served, ref_pnl, ref_rows), (served, pnl, rows) = outcomes
        assert served and served == ref_served
        np.testing.assert_array_equal(pnl, ref_pnl)
        for got, want in zip(rows, ref_rows):
            np.testing.assert_array_equal(got, want)
