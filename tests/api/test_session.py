"""Unit tests for the session facade, the registry and input validation."""

import numpy as np
import pytest

from repro.api import (
    BackendCapabilities,
    CpuBackend,
    PriceResult,
    PricingBackend,
    VectorizedBackend,
    available_backends,
    create_backend,
    open_session,
    register_backend,
    unregister_backend,
)
from repro.api.session import capability_error
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

    @pytest.mark.parametrize(
        "backend, config, accepted",
        [
            ("vectorized", {"n_cards": 4}, "no configuration keywords"),
            (
                "dataflow",
                {"variantt": "x"},
                "['scenario', 'variant', 'n_engines']",
            ),
        ],
    )
    def test_bad_config_keyword_names_the_backend(
        self, backend, config, accepted
    ):
        """A keyword the backend does not take is a ValidationError naming
        the backend, the keyword and the accepted ones, not a TypeError."""
        (keyword,) = config
        with pytest.raises(ValidationError) as err:
            open_session(backend, BOOK, **config)
        assert str(err.value) == (
            f"backend {backend!r} got an unexpected keyword argument "
            f"{keyword!r}; it accepts {accepted}"
        )

    def test_a_constructor_bug_is_not_read_as_bad_config(self):
        """Only the keywords are checked up front: a TypeError raised
        inside a factory that accepts them still escapes as itself."""

        def broken(scale=1.0):
            return VectorizedBackend(scale)

        register_backend("broken-ctor", broken)
        try:
            with pytest.raises(TypeError):
                create_backend("broken-ctor", scale=2.0)
        finally:
            unregister_backend("broken-ctor")


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("cpu", "dataflow", "vectorized")

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


class TestPriceTensorRows:
    @pytest.fixture
    def session(self):
        # cpu has no kernel of its own to reject bad rows or chunk sizes:
        # whatever is refused here, the session refused.
        with open_session("cpu", BOOK) as session:
            yield session

    def test_rows_out_of_range(self, session):
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        with pytest.raises(ValidationError, match="outside"):
            session.price_tensor(tensor, rows=(0, 3))

    @pytest.mark.parametrize(
        "rows, shown", [((2.7,), "[2.7]"), ((True,), "[True]")]
    )
    def test_rows_must_be_integers(self, session, rows, shown):
        """Neither truncated (2.7 -> row 2) nor read as a row (True -> 1)."""
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        message = f"rows must be 1-D integer indices, got {shown}"
        with pytest.raises(ValidationError) as err:
            session.price_tensor(tensor, rows=rows)
        assert str(err.value) == message
        with pytest.raises(ValidationError) as err:
            session.price_tensor(tensor, list(rows))
        assert str(err.value) == message

    def test_rows_must_be_non_empty(self, session):
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        with pytest.raises(ValidationError, match="non-empty"):
            session.price_tensor(tensor, rows=())

    def test_chunk_size_positive(self, session):
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        with pytest.raises(ValidationError, match="chunk_size"):
            session.price_tensor(tensor, chunk_size=0)

    def test_tensor_request_defaults_to_all_rows(self, session):
        tensor = monte_carlo(YC, HC, 5, seed=1).tensor
        result = session.price_tensor(tensor)
        assert result.n_states == 5
        np.testing.assert_array_equal(
            result.spreads_bps,
            session.price_tensor(tensor, rows=np.arange(5)).spreads_bps,
        )


class TestBackendLifecycle:
    def test_price_before_bind_raises(self):
        backend = VectorizedBackend()
        with pytest.raises(ValidationError, match="no bound book"):
            backend.price_state(YC, HC)

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

    def test_want_legs_on_dataflow_refused(self):
        with open_session("dataflow", BOOK, scenario=SC) as session:
            with pytest.raises(CapabilityError, match="leg surfaces"):
                session.price_state(YC, HC, want_legs=True)

    def test_want_legs_refusal_words_its_error_as_require_does(self):
        """Both input shapes refuse a legs call in require's format, and
        the session stays open for spread-only work."""
        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        expected = capability_error(
            "dataflow", ["supports_legs"], "pricing with want_legs"
        )
        with open_session("dataflow", BOOK, scenario=SC) as session:
            for call in (
                lambda: session.price_state(YC, HC, want_legs=True),
                lambda: session.price_tensor(tensor, want_legs=True),
            ):
                with pytest.raises(CapabilityError) as err:
                    call()
                assert str(err.value) == str(expected)
            assert session.price_tensor(tensor).legs is None

    @pytest.mark.parametrize("shape", ["state", "tensor"])
    def test_a_wrong_result_shape_is_refused_naming_the_backend(self, shape):
        class Wide(PricingBackend):
            name = "wide"

            def price_state(self, yield_curve, hazard_curve, **_):
                return PriceResult(
                    backend=self.name,
                    spreads_bps=np.zeros((1, self.n_options + 1)),
                )

        tensor = monte_carlo(YC, HC, 3, seed=1).tensor
        n = len(BOOK)
        with open_session(Wide(), BOOK) as session:
            with pytest.raises(ValidationError) as err:
                if shape == "state":
                    session.price_state(YC, HC)
                else:
                    session.price_tensor(tensor)
        states = 1 if shape == "state" else 3
        assert str(err.value) == (
            f"backend 'wide' returned a ({states}, {n + 1}) spread surface "
            f"for a ({states}, {n}) request"
        )

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


class TestRequire:
    def test_unknown_flag_releases_the_backend(self):
        backend = VectorizedBackend()
        session = open_session(backend, BOOK)
        with pytest.raises(ValidationError) as err:
            session.require("supports_magic")
        assert str(err.value) == (
            "unknown capability flag 'supports_magic'; choose from "
            "['supports_batch_tensor', 'supports_streaming', "
            "'supports_legs', 'simulated_timing']"
        )
        assert session.closed
        # The caller's instance is free again, as on a missing flag.
        with open_session(backend, BOOK) as reopened:
            assert reopened.spreads(YC, HC).shape == (len(BOOK),)

    @pytest.mark.parametrize("description", ["packed kernels", ""])
    def test_only_boolean_flags_are_flags(self, description):
        """``description`` is a capabilities field but no flag: it is
        refused whatever its value, never read as present or missing."""

        class Described(VectorizedBackend):
            capabilities = BackendCapabilities(
                supports_batch_tensor=True,
                supports_streaming=True,
                supports_legs=True,
                simulated_timing=False,
                description=description,
            )

        session = open_session(Described(), BOOK)
        with pytest.raises(ValidationError, match="unknown capability flag"):
            session.require("description")
        assert session.closed


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

            def price_state(self, yield_curve, hazard_curve, **_):
                return PriceResult(
                    backend=self.name,
                    spreads_bps=np.full((1, self.n_options), 100.0),
                )

        register_backend("constant", ConstantBackend)
        try:
            with open_session("constant", BOOK) as session:
                assert np.all(session.spreads(YC, HC) == 100.0)
                # Tensor rows go through the default per-state price_rows.
                tensor = monte_carlo(YC, HC, 3, seed=1).tensor
                result = session.price_tensor(tensor)
                assert result.spreads_bps.shape == (3, len(BOOK))
        finally:
            unregister_backend("constant")
