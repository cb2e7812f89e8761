"""Unit tests for the session facade, the registry and request validation."""

import numpy as np
import pytest

from repro.api import (
    BackendCapabilities,
    ClusterBackend,
    CpuBackend,
    DispatchCostModel,
    PriceRequest,
    PricingBackend,
    VectorizedBackend,
    available_backends,
    create_backend,
    open_session,
    register_backend,
    unregister_backend,
)
from repro.errors import CapabilityError, ValidationError
from repro.risk.engine import ScenarioRiskEngine, make_book
from repro.risk.scenarios import monte_carlo
from repro.workloads.scenarios import PaperScenario

SC = PaperScenario(n_rates=48, n_options=4)
YC = SC.yield_curve()
HC = SC.hazard_curve()
BOOK = make_book("heterogeneous", 4, seed=23).options


class TestOpenSession:
    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValidationError, match="unknown pricing backend"):
            open_session("fpga-rev2", BOOK)

    def test_options_required(self):
        with pytest.raises(ValidationError, match="book to bind"):
            open_session("vectorized")

    def test_instance_with_config_rejected(self):
        with pytest.raises(ValidationError, match="registry name"):
            open_session(VectorizedBackend(), BOOK, n_cards=2)

    def test_backend_instance_accepted(self):
        session = open_session(CpuBackend(), BOOK)
        assert session.backend_name == "cpu"
        assert session.n_options == len(BOOK)

    def test_empty_book_rejected(self):
        with pytest.raises(ValidationError, match="at least one option"):
            open_session("vectorized", [])

    def test_context_manager_closes(self):
        with open_session("vectorized", BOOK) as session:
            assert not session.closed
        assert session.closed
        with pytest.raises(ValidationError, match="closed"):
            session.price_state(YC, HC)

    def test_close_is_idempotent(self):
        session = open_session("vectorized", BOOK)
        session.close()
        session.close()
        assert session.closed

    def test_spreads_convenience_shape(self):
        with open_session("vectorized", BOOK) as session:
            assert session.spreads(YC, HC).shape == (len(BOOK),)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_backends()) >= {
            "cpu",
            "vectorized",
            "dataflow",
            "cluster",
        }

    def test_duplicate_registration_refused(self):
        with pytest.raises(ValidationError, match="already registered"):
            register_backend("vectorized", VectorizedBackend)

    def test_register_replace_and_unregister(self):
        class TracingBackend(CpuBackend):
            name = "tracing"

        register_backend("tracing", TracingBackend)
        try:
            register_backend("tracing", TracingBackend, replace=True)
            assert "tracing" in available_backends()
            with open_session("tracing", BOOK) as session:
                assert session.backend_name == "tracing"
                assert session.spreads(YC, HC).shape == (len(BOOK),)
        finally:
            unregister_backend("tracing")
        assert "tracing" not in available_backends()

    def test_unregister_unknown_is_error(self):
        with pytest.raises(ValidationError, match="not registered"):
            unregister_backend("no-such-backend")

    def test_factory_must_return_backend(self):
        register_backend("broken", lambda: object())
        try:
            with pytest.raises(ValidationError, match="not a PricingBackend"):
                create_backend("broken")
        finally:
            unregister_backend("broken")


class TestPriceRequestValidation:
    def test_state_needs_both_curves(self):
        with pytest.raises(ValidationError, match="both yield_curve"):
            PriceRequest(yield_curve=YC)

    def test_state_and_tensor_exclusive(self):
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        with pytest.raises(ValidationError, match="not both"):
            PriceRequest(yield_curve=YC, hazard_curve=HC, tensor=tensor)

    def test_rows_only_with_tensor(self):
        with pytest.raises(ValidationError, match="tensor requests"):
            PriceRequest(yield_curve=YC, hazard_curve=HC, rows=(0,))

    def test_rows_out_of_range(self):
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        with pytest.raises(ValidationError, match="outside"):
            PriceRequest(tensor=tensor, rows=(0, 3))

    @pytest.mark.parametrize(
        "rows, shown", [((2.7,), "[2.7]"), ((True,), "[True]")]
    )
    def test_rows_must_be_integers(self, rows, shown):
        """Neither truncated (2.7 -> row 2) nor read as a row (True -> 1)."""
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        message = f"rows must be 1-D integer indices, got {shown}"
        with pytest.raises(ValidationError) as err:
            PriceRequest(tensor=tensor, rows=rows)
        assert str(err.value) == message
        with pytest.raises(ValidationError) as err:
            PriceRequest.tensor_rows(tensor, list(rows))
        assert str(err.value) == message

    def test_rows_are_stored_as_ints(self):
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        req = PriceRequest.tensor_rows(tensor, np.array([2, 0]))
        assert req.rows == (2, 0)
        assert all(type(r) is int for r in req.rows)

    def test_rows_must_be_non_empty(self):
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        with pytest.raises(ValidationError, match="non-empty"):
            PriceRequest(tensor=tensor, rows=())

    def test_recovery_only_for_state_requests(self):
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        with pytest.raises(ValidationError, match="recovery"):
            PriceRequest(tensor=tensor, recovery=np.zeros(4))

    def test_chunk_size_positive(self):
        with pytest.raises(ValidationError, match="chunk_size"):
            PriceRequest(yield_curve=YC, hazard_curve=HC, chunk_size=0)

    def test_state_request_has_no_rows(self):
        req = PriceRequest.state(YC, HC)
        assert req.kind == "state"
        assert req.n_states == 1
        with pytest.raises(ValidationError, match="no tensor rows"):
            req.row_indices

    def test_tensor_request_defaults_to_all_rows(self):
        tensor = monte_carlo(YC, HC, 5, seed=1).tensor
        req = PriceRequest.tensor_rows(tensor)
        assert req.kind == "tensor"
        assert req.n_states == 5
        np.testing.assert_array_equal(req.row_indices, np.arange(5))

    def test_requests_compare_by_identity_and_hash(self):
        # The optional array field makes field-wise == ill-defined, so
        # requests are identity-compared (and hashable) like PriceResult.
        rec = np.full(len(BOOK), 0.4)
        a = PriceRequest.state(YC, HC, recovery=rec)
        b = PriceRequest.state(YC, HC, recovery=rec.copy())
        assert a == a and a != b
        assert len({a, b}) == 2


class TestBackendLifecycle:
    def test_price_before_bind_raises(self):
        backend = VectorizedBackend()
        with pytest.raises(ValidationError, match="no bound book"):
            backend.price(PriceRequest.state(YC, HC))

    def test_rebinding_a_bound_backend_is_refused(self):
        """One backend instance serves one session: a silent rebind would
        repoint every session sharing the instance at the new book."""
        backend = VectorizedBackend()
        backend.bind(BOOK)
        other = make_book("uniform", len(BOOK), seed=99).options
        with pytest.raises(ValidationError, match="already bound"):
            backend.bind(other)
        # The original binding is untouched.
        assert backend.options == tuple(BOOK)

    def test_shared_instance_across_sessions_is_refused(self):
        backend = VectorizedBackend()
        open_session(backend, BOOK)
        with pytest.raises(ValidationError, match="already bound"):
            open_session(backend, BOOK)

    def test_rebind_after_close_is_allowed(self):
        backend = VectorizedBackend()
        with open_session(backend, BOOK) as session:
            first = session.spreads(YC, HC)
        other = make_book("uniform", 3, seed=99).options
        with open_session(backend, other) as session:
            assert session.n_options == 3
            assert session.spreads(YC, HC).shape == (3,)
        assert first.shape == (len(BOOK),)

    def test_direct_tensor_on_non_batch_backend_refused(self):
        backend = CpuBackend()
        backend.bind(BOOK)
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        with pytest.raises(CapabilityError, match="cannot price tensor"):
            backend.price(PriceRequest.tensor_rows(tensor))

    def test_want_legs_on_dataflow_refused(self):
        with open_session("dataflow", BOOK, scenario=SC) as session:
            with pytest.raises(CapabilityError, match="leg surfaces"):
                session.price_state(YC, HC, want_legs=True)

    def test_failed_engine_construction_releases_the_backend(self):
        """A capability mismatch raised mid-construction must unbind a
        caller-supplied backend instance so it stays reusable."""
        from repro.api import DataflowBackend

        backend = DataflowBackend(scenario=SC)
        portfolio = make_book("uniform", 3, seed=1)
        with pytest.raises(CapabilityError, match="leg surfaces"):
            ScenarioRiskEngine(portfolio, YC, HC, scenario=SC, backend=backend)
        # Still bindable: the failed constructor closed its session.
        with open_session(backend, BOOK) as session:
            assert session.spreads(YC, HC).shape == (len(BOOK),)

    def test_capabilities_are_flags(self):
        caps = VectorizedBackend.capabilities
        assert isinstance(caps, BackendCapabilities)
        assert caps.supports_batch_tensor and caps.supports_legs


class TestClusterBackend:
    def test_nested_cluster_rejected(self):
        with pytest.raises(ValidationError, match="do not nest"):
            ClusterBackend(base="cluster")

    def test_bad_card_count(self):
        with pytest.raises(ValidationError, match="n_cards"):
            ClusterBackend(n_cards=0)

    def test_base_config_with_instance_rejected(self):
        with pytest.raises(ValidationError, match="registry name"):
            ClusterBackend(base=VectorizedBackend(), variant="baseline")

    def test_capabilities_derive_from_base(self):
        over_vec = ClusterBackend(base="vectorized", n_cards=2)
        over_cpu = ClusterBackend(base="cpu", n_cards=2)
        assert over_vec.capabilities.supports_batch_tensor
        assert not over_cpu.capabilities.supports_batch_tensor
        assert over_vec.capabilities.simulated_timing
        assert over_cpu.capabilities.supports_legs

    def test_assignment_metadata_covers_requested_rows(self):
        tensor = monte_carlo(YC, HC, 9, seed=7).tensor
        with open_session(
            "cluster", BOOK, n_cards=3, scheduler="round-robin"
        ) as session:
            result = session.price_tensor(tensor, rows=[8, 1, 4, 2])
        assignment = result.meta["assignment"]
        assert len(assignment) == 3
        covered = sorted(i for chunk in assignment for i in chunk)
        # Positions into the request's row list, not tensor indices.
        assert covered == [0, 1, 2, 3]
        assert result.meta["policy"] == "round-robin"
        assert result.meta["base"] == "vectorized"

    def test_state_requests_delegate_without_sharding(self):
        with open_session("cluster", BOOK, n_cards=4) as session:
            result = session.price_state(YC, HC)
        assert result.backend == "cluster"
        assert result.meta["base"] == "vectorized"
        assert "assignment" not in result.meta


class TestQuoteRowsHotPath:
    def test_one_kernel_call_regardless_of_card_count(self, monkeypatch):
        """The serving hot path must stay one kernel call per micro-batch:
        quote_rows makes one call into the backend the engine's session
        binds, whatever the card count (card sharding is timing-only)."""
        import repro.api.backends as backends_mod

        calls = []
        real = backends_mod.price_packed_many

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(backends_mod, "price_packed_many", counting)
        engine = ScenarioRiskEngine(
            make_book("heterogeneous", 4, seed=23), YC, HC,
            scenario=SC, n_cards=4,
        )
        tensor = monte_carlo(YC, HC, 8, seed=3).tensor
        calls.clear()
        spreads, pv = engine.quote_rows(tensor, range(8))
        assert len(calls) == 1
        assert spreads.shape == pv.shape == (8, 4)
        # Revaluation, by contrast, shards: one call per active card.
        calls.clear()
        engine.revalue(monte_carlo(YC, HC, 8, seed=3), with_timing=False)
        assert len(calls) == 4


class TestDispatchCostModelHook:
    def test_hook_matches_direct_calibration(self):
        with open_session("vectorized", BOOK) as session:
            hooked = session.dispatch_cost_model(SC, YC, HC, n_engines=3)
        direct = DispatchCostModel.calibrate(
            SC, list(BOOK), YC, HC, n_engines=3
        )
        assert hooked == direct

    def test_cluster_delegates_to_base(self):
        with open_session("cluster", BOOK, n_cards=2) as session:
            hooked = session.dispatch_cost_model(SC, YC, HC)
        direct = DispatchCostModel.calibrate(SC, list(BOOK), YC, HC)
        assert hooked == direct


class TestCustomBackendExtension:
    def test_minimal_third_party_backend(self):
        """The protocol is enough: a new backend plugs in via the registry
        and immediately works through the session facade."""

        class ConstantBackend(PricingBackend):
            name = "constant"
            capabilities = BackendCapabilities(
                supports_batch_tensor=False,
                supports_streaming=False,
                supports_legs=False,
                simulated_timing=False,
                description="answers 100 bps for everything",
            )

            def _price_state(self, request):
                from repro.api import PriceResult

                return PriceResult(
                    backend=self.name,
                    spreads_bps=np.full((1, self.n_options), 100.0),
                )

        register_backend("constant", ConstantBackend)
        try:
            with open_session("constant", BOOK) as session:
                assert np.all(session.spreads(YC, HC) == 100.0)
                # Tensor requests negotiate down to per-state calls.
                tensor = monte_carlo(YC, HC, 3, seed=1).tensor
                result = session.price_tensor(tensor)
                assert result.spreads_bps.shape == (3, len(BOOK))
                assert result.meta["negotiated"] == "per-state"
        finally:
            unregister_backend("constant")
