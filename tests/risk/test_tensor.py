"""Unit tests for the scenario-tensor lowering and the batched engine path."""

import numpy as np
import pytest

from repro.core.curves import YieldCurve
from repro.errors import ValidationError
from repro.risk.engine import Portfolio, ScenarioRiskEngine
from repro.risk.scenarios import (
    CALM_STRESSED_REGIMES,
    Scenario,
    ScenarioSet,
    bucketed_shocks,
    historical_replay,
    monte_carlo,
    parallel_shocks,
    recovery_shocks,
)
from repro.risk.tensor import ScenarioTensor
from repro.workloads.history import make_curve_history


@pytest.fixture
def curves(risk_scenario):
    return risk_scenario.yield_curve(), risk_scenario.hazard_curve()


class TestScenarioTensorPacking:
    def test_shapes_and_values(self, curves):
        yc, hc = curves
        shocks = monte_carlo(yc, hc, 7, seed=3, recovery_vol=0.05)
        tensor = ScenarioTensor.from_scenario_set(shocks)
        assert tensor.n_scenarios == 7
        assert tensor.yield_values.shape == (7, len(yc))
        assert tensor.hazard_values.shape == (7, len(hc))
        for i, s in enumerate(shocks):
            np.testing.assert_array_equal(
                tensor.yield_values[i], s.yield_curve.values
            )
            np.testing.assert_array_equal(
                tensor.hazard_values[i], s.hazard_curve.values
            )
            assert tensor.recovery_shifts[i] == s.recovery_shift

    def test_generators_attach_tensor(self, curves):
        yc, hc = curves
        assert monte_carlo(yc, hc, 3, seed=1).tensor is not None
        history = make_curve_history(4, seed=2)
        assert historical_replay(yc, hc, history).tensor is not None

    def test_attached_tensor_is_reused(self, curves):
        yc, hc = curves
        shocks = monte_carlo(yc, hc, 3, seed=1)
        assert ScenarioTensor.from_scenario_set(shocks) is shocks.tensor

    def test_lazily_packed_generators(self, curves):
        """Generators without attached tensors still lower cleanly."""
        yc, hc = curves
        for shocks in (parallel_shocks(yc, hc), recovery_shocks(yc, hc)):
            assert shocks.tensor is None
            tensor = ScenarioTensor.from_scenario_set(shocks)
            assert tensor.n_scenarios == len(shocks)

    def test_mixed_grids_rejected(self, curves):
        yc, hc = curves
        other_yc = YieldCurve([1.0, 2.0, 3.0], [0.01, 0.02, 0.02])
        mixed = ScenarioSet(
            name="mixed",
            base_yield=yc,
            base_hazard=hc,
            scenarios=(
                Scenario(label="a", yield_curve=yc, hazard_curve=hc),
                Scenario(label="b", yield_curve=other_yc, hazard_curve=hc),
            ),
        )
        with pytest.raises(ValidationError):
            ScenarioTensor.from_scenario_set(mixed)
        assert ScenarioTensor.try_pack(mixed) is None

    def test_replaced_scenarios_drop_stale_tensor(self, curves):
        """dataclasses.replace with different scenarios must not keep the
        old tensor — batch=True would silently price stale rows."""
        import dataclasses

        yc, hc = curves
        shocks = monte_carlo(yc, hc, 6, seed=2, recovery_vol=0.05)
        reordered = dataclasses.replace(
            shocks, scenarios=tuple(reversed(shocks.scenarios))
        )
        assert reordered.tensor is None
        tensor = ScenarioTensor.from_scenario_set(reordered)
        np.testing.assert_array_equal(
            tensor.yield_values, shocks.tensor.yield_values[::-1]
        )
        # A subset replace drops the stale tensor too (no crash).
        subset = dataclasses.replace(shocks, scenarios=shocks.scenarios[:3])
        assert subset.tensor is None
        # The same scenarios (the generator's view) keep its tensor.
        renamed = dataclasses.replace(shocks, name="mc-renamed")
        assert renamed.tensor is shocks.tensor

    def test_tensor_arrays_frozen(self, curves):
        yc, hc = curves
        tensor = monte_carlo(yc, hc, 3, seed=1).tensor
        with pytest.raises(ValueError):
            tensor.yield_values[0, 0] = 99.0

    def test_read_only_view_of_a_writable_buffer_is_copied(self, curves):
        """Writing the buffer under a read-only view must not reach the
        tensor: only arrays read-only down their base chain are kept."""
        import dataclasses

        yc, hc = curves
        tensor = monte_carlo(yc, hc, 3, seed=1).tensor
        base = tensor.hazard_values.copy()
        view = base.view()
        view.flags.writeable = False
        probe = dataclasses.replace(tensor, hazard_values=view)
        before = probe.hazard_values.copy()
        base[1, 0] = 99.0
        np.testing.assert_array_equal(probe.hazard_values, before)
        assert not np.shares_memory(probe.hazard_values, base)

    def test_generated_arrays_are_not_copied(self, curves):
        import dataclasses

        yc, hc = curves
        tensor = monte_carlo(yc, hc, 3, seed=1).tensor
        again = dataclasses.replace(tensor)
        for name in (
            "yield_times",
            "yield_values",
            "hazard_times",
            "hazard_values",
            "recovery_shifts",
        ):
            assert np.shares_memory(
                getattr(again, name), getattr(tensor, name)
            ), name

    def test_foreign_tensor_beside_a_tuple_prices_the_tuple(
        self, book, risk_scenario
    ):
        """The tensor comes from ``scenarios``: one passed beside a plain
        tuple is replaced, and revaluation prices the tuple's own rows."""
        engine = ScenarioRiskEngine(book, scenario=risk_scenario)
        yc, hc = engine.yield_curve, engine.hazard_curve
        shocks = monte_carlo(yc, hc, 3, seed=1, recovery_vol=0.05)
        foreign = monte_carlo(yc, hc, 2, seed=2, recovery_vol=0.05).tensor
        handmade = ScenarioSet(
            name="handmade",
            base_yield=yc,
            base_hazard=hc,
            scenarios=shocks.scenarios[:2],
            tensor=foreign,
        )
        assert handmade.tensor is None
        np.testing.assert_array_equal(
            engine.revalue(handmade, with_timing=False).pv,
            engine.revalue(shocks, with_timing=False).pv[:2],
        )

    def test_frozen_column_major_rows_are_copied_row_major(self, curves):
        """The kernel gathers rows: a frozen column-major array is
        copied into row-major order, values unchanged."""
        import dataclasses

        yc, hc = curves
        tensor = monte_carlo(yc, hc, 3, seed=1).tensor
        fortran = np.asfortranarray(tensor.hazard_values)
        fortran.flags.writeable = False
        probe = dataclasses.replace(tensor, hazard_values=fortran)
        assert probe.hazard_values.flags.c_contiguous
        np.testing.assert_array_equal(probe.hazard_values, tensor.hazard_values)

    def test_every_generator_writes_row_major_arrays(self, curves):
        yc, hc = curves
        for shocks in (
            monte_carlo(yc, hc, 5, seed=1, recovery_vol=0.05),
            monte_carlo(yc, hc, 5, seed=1, regimes=CALM_STRESSED_REGIMES),
            historical_replay(yc, hc, make_curve_history(4, seed=2)),
            parallel_shocks(yc, hc),
            bucketed_shocks(yc, hc),
            recovery_shocks(yc, hc),
        ):
            tensor = ScenarioTensor.from_scenario_set(shocks)
            for name in (
                "yield_times",
                "yield_values",
                "hazard_times",
                "hazard_values",
                "recovery_shifts",
            ):
                assert getattr(tensor, name).flags.c_contiguous, (
                    shocks.name, name
                )


class TestBatchedEnginePath:
    def test_mixed_grid_sets_fall_back_to_loop(self, book, risk_scenario):
        """batch=True silently loops when the set cannot be lowered."""
        engine = ScenarioRiskEngine(book, scenario=risk_scenario)
        yc, hc = engine.yield_curve, engine.hazard_curve
        coarse_yc = YieldCurve([1.0, 5.0, 10.0], [0.01, 0.015, 0.02])
        mixed = ScenarioSet(
            name="mixed",
            base_yield=yc,
            base_hazard=hc,
            scenarios=(
                Scenario(label="fine", yield_curve=yc, hazard_curve=hc),
                Scenario(label="coarse", yield_curve=coarse_yc, hazard_curve=hc),
            ),
        )
        batched = engine.revalue(mixed, with_timing=False, batch=True)
        looped = engine.revalue(mixed, with_timing=False, batch=False)
        np.testing.assert_array_equal(batched.pv, looped.pv)

    def test_engine_default_mode_is_constructor_mode(self, book, risk_scenario):
        looped_engine = ScenarioRiskEngine(
            book, scenario=risk_scenario, batch=False
        )
        batched_engine = ScenarioRiskEngine(
            book, scenario=risk_scenario, batch=True, chunk_size=2
        )
        shocks = monte_carlo(
            looped_engine.yield_curve, looped_engine.hazard_curve, 5, seed=9
        )
        np.testing.assert_array_equal(
            looped_engine.revalue(shocks, with_timing=False).pv,
            batched_engine.revalue(shocks, with_timing=False).pv,
        )

    def test_bad_chunk_size_rejected(self, book):
        with pytest.raises(ValidationError):
            ScenarioRiskEngine(book, chunk_size=0)

    def test_timing_identical_across_modes(self, book, risk_scenario):
        """Batching changes host wall-clock only, never the simulated
        cluster roll-up (shard boundaries are chunk boundaries)."""
        engine = ScenarioRiskEngine(book, scenario=risk_scenario, n_cards=2)
        shocks = monte_carlo(engine.yield_curve, engine.hazard_curve, 6, seed=3)
        t_batched = engine.revalue(shocks, batch=True).timing
        t_looped = engine.revalue(shocks, batch=False).timing
        assert t_batched == t_looped

    def test_single_scenario_grid(self, book, risk_scenario):
        engine = ScenarioRiskEngine(book, scenario=risk_scenario)
        shocks = monte_carlo(engine.yield_curve, engine.hazard_curve, 1, seed=4)
        rev = engine.revalue(shocks, with_timing=False, batch=True)
        assert rev.pv.shape == (1, len(book))

    def test_notional_weighting_preserved(self, risk_scenario):
        """Signed notionals weight the batched P&L exactly as the loop."""
        options = risk_scenario.options(3)
        book = Portfolio.from_options(options, notionals=[2.0, -1.5, 0.25])
        engine = ScenarioRiskEngine(book, scenario=risk_scenario)
        shocks = monte_carlo(engine.yield_curve, engine.hazard_curve, 8, seed=5)
        batched = engine.revalue(shocks, with_timing=False, batch=True)
        looped = engine.revalue(shocks, with_timing=False, batch=False)
        np.testing.assert_array_equal(batched.pnl, looped.pnl)
        np.testing.assert_array_equal(
            batched.pnl,
            (batched.pv - batched.base_pv[None, :]) @ book.notionals,
        )
