"""Unit tests for scenario-grid sharding and the cluster timing roll-up."""

import pytest

from repro.cluster.batching import BatchQueue
from repro.cluster.interconnect import HostLinkModel
from repro.cluster.scheduler import shard_scenarios
from repro.errors import ValidationError
from repro.faults import FaultPlan
from repro.risk.sharding import simulate_grid_run
from repro.telemetry import Telemetry
from repro.workloads.cluster import Arrival


class TestShardScenarios:
    def test_partition_is_exact(self):
        assignment = shard_scenarios(17, 4)
        seen = sorted(i for chunk in assignment for i in chunk)
        assert seen == list(range(17))

    def test_uniform_costs_balance(self):
        assignment = shard_scenarios(16, 4)
        assert [len(c) for c in assignment] == [4, 4, 4, 4]

    def test_more_cards_than_scenarios(self):
        assignment = shard_scenarios(2, 5)
        assert sum(1 for c in assignment if c) == 2

    def test_policies_all_work(self):
        for policy in ("round-robin", "least-loaded", "work-stealing"):
            assignment = shard_scenarios(9, 3, policy)
            assert sum(len(c) for c in assignment) == 9

    def test_chunks_sorted(self):
        for chunk in shard_scenarios(20, 3, "work-stealing"):
            assert chunk == sorted(chunk)

    def test_bad_counts(self):
        with pytest.raises(ValidationError):
            shard_scenarios(0, 2)
        with pytest.raises(ValidationError):
            shard_scenarios(4, 0)


class TestSimulateGridRun:
    @pytest.fixture
    def grid(self, risk_scenario, book):
        assignment = shard_scenarios(12, 3)
        return assignment, book.options, risk_scenario

    def test_rollup_shape(self, grid, risk_scenario):
        assignment, options, sc = grid
        timing = simulate_grid_run(
            assignment,
            options,
            sc.yield_curve(),
            sc.hazard_curve(),
            scenario=sc,
            policy="least-loaded",
        )
        assert timing.n_scenarios == 12
        assert timing.n_positions == len(options)
        assert timing.n_cards == 3
        assert timing.n_active_cards == 3
        assert timing.repricings_per_second > 0
        assert timing.total_watts > 0
        assert len(timing.cards) == 3
        assert "repricings/s" in timing.summary()

    def test_busy_time_proportional_to_scenarios(self, grid):
        assignment, options, sc = grid
        timing = simulate_grid_run(
            assignment,
            options,
            sc.yield_curve(),
            sc.hazard_curve(),
            scenario=sc,
            policy="least-loaded",
        )
        for shard in timing.cards:
            assert shard.seconds == pytest.approx(
                shard.n_scenarios * timing.batch_seconds
            )

    def test_idle_cards_draw_shell_power(self, risk_scenario, book):
        assignment = shard_scenarios(2, 4)
        timing = simulate_grid_run(
            assignment,
            book.options,
            risk_scenario.yield_curve(),
            risk_scenario.hazard_curve(),
            scenario=risk_scenario,
            policy="least-loaded",
        )
        idle = [s for s in timing.cards if s.idle]
        active = [s for s in timing.cards if not s.idle]
        assert len(idle) == 2
        assert all(s.watts < active[0].watts for s in idle)
        assert all(s.utilisation == 0.0 for s in idle)

    def test_batch_queue_caps_dispatch_size(self, risk_scenario, book):
        assignment = shard_scenarios(10, 1)
        timing = simulate_grid_run(
            assignment,
            book.options,
            risk_scenario.yield_curve(),
            risk_scenario.hazard_curve(),
            scenario=risk_scenario,
            policy="least-loaded",
            queue=BatchQueue(max_batch=3),
        )
        assert timing.dispatches == 4  # ceil(10 / 3)

    @pytest.mark.parametrize("max_batch", [2, 256])
    def test_dispatch_count_matches_batch_queue_at_boundaries(
        self, risk_scenario, book, max_batch
    ):
        """Arithmetic dispatch counts equal replaying the batch queue."""
        queue = BatchQueue(max_batch=max_batch)
        token = book.options[0]
        yc, hc = risk_scenario.yield_curve(), risk_scenario.hazard_curve()
        for n in sorted({1, max_batch - 1, max_batch, max_batch + 1, 1000} - {0}):
            timing = simulate_grid_run(
                [list(range(n))], book.options, yc, hc,
                scenario=risk_scenario, policy="least-loaded", queue=queue,
            )
            replayed = queue.coalesce([Arrival(time_s=0.0, options=[token] * n)])
            assert timing.dispatches == len(replayed), n

    def test_ideal_link_scales_with_cards(self, risk_scenario, book):
        """With an ideal host link, 4 cards cut the makespan 4x."""
        link = HostLinkModel(host_contention=0.0, dispatch_latency_s=0.0)
        yc, hc = risk_scenario.yield_curve(), risk_scenario.hazard_curve()
        runs = {
            cards: simulate_grid_run(
                shard_scenarios(16, cards),
                book.options,
                yc,
                hc,
                scenario=risk_scenario,
                policy="least-loaded",
                link=link,
            )
            for cards in (1, 4)
        }
        speedup = (
            runs[4].repricings_per_second / runs[1].repricings_per_second
        )
        assert speedup == pytest.approx(4.0, rel=1e-6)

    def test_empty_inputs_rejected(self, risk_scenario, book):
        yc, hc = risk_scenario.yield_curve(), risk_scenario.hazard_curve()
        with pytest.raises(ValidationError):
            simulate_grid_run(
                [[0]], [], yc, hc, scenario=risk_scenario, policy="x"
            )
        with pytest.raises(ValidationError):
            simulate_grid_run(
                [], book.options, yc, hc, scenario=risk_scenario, policy="x"
            )


class TestFaultedGridRun:
    """The failure-aware grid walk: re-partition on crash, straggler
    inflation, conservation, zero-fault identity."""

    def _run(self, risk_scenario, book, spec, *, n_scenarios=40, n_cards=4,
             seed=7):
        from repro.faults import FaultPlan

        assignment = shard_scenarios(n_scenarios, n_cards)
        return simulate_grid_run(
            assignment,
            book.options,
            risk_scenario.yield_curve(),
            risk_scenario.hazard_curve(),
            scenario=risk_scenario,
            policy="least-loaded",
            faults=FaultPlan.from_spec(spec, seed=seed) if spec else None,
        )

    def test_empty_plan_identity(self, risk_scenario, book):
        from repro.faults import FaultPlan
        from repro.risk.sharding import FaultedClusterTiming

        assignment = shard_scenarios(40, 4)
        kw = dict(scenario=risk_scenario, policy="least-loaded")
        yc, hc = risk_scenario.yield_curve(), risk_scenario.hazard_curve()
        legacy = simulate_grid_run(assignment, book.options, yc, hc, **kw)
        empty = simulate_grid_run(
            assignment, book.options, yc, hc, faults=FaultPlan(), **kw
        )
        assert empty == legacy
        assert not isinstance(empty, FaultedClusterTiming)

    def test_crash_with_repair_repartitions(self, risk_scenario, book):
        from repro.risk.sharding import FaultedClusterTiming

        timing = self._run(
            risk_scenario, book, "crash:card=1,at=0.0005,repair=0.0005"
        )
        assert isinstance(timing, FaultedClusterTiming)
        assert timing.n_repartitions == 1
        assert timing.n_rescheduled > 0
        assert timing.n_failed_scenarios == 0
        assert timing.wasted_seconds >= 0.0

    def test_all_cards_dead_fails_remainder(self, risk_scenario, book):
        timing = self._run(
            risk_scenario, book, "correlated:cards=0+1,at=0.0002",
            n_cards=2, n_scenarios=24,
        )
        assert timing.n_failed_scenarios > 0
        assert timing.n_failed_scenarios <= 24

    def test_straggler_grows_makespan(self, risk_scenario, book):
        base = self._run(risk_scenario, book, "")
        slowed = self._run(
            risk_scenario, book, "slow:card=0,at=0.0,for=0.01,factor=4"
        )
        assert slowed.makespan_seconds > base.makespan_seconds

    def test_deterministic(self, risk_scenario, book):
        spec = "crash:card=2,at=0.0004,repair=0.0005"
        assert self._run(risk_scenario, book, spec) == self._run(
            risk_scenario, book, spec
        )

    def test_spec_carried_in_rollup(self, risk_scenario, book):
        spec = "crash:card=1,at=0.0005,repair=0.0005"
        timing = self._run(risk_scenario, book, spec)
        assert timing.fault_spec == spec


class TestGridTelemetry:
    """The ``risk_grid_*`` roll-up is published with and without faults."""

    BASE = (
        "risk_grid_scenarios_total",
        "risk_grid_dispatches_total",
        "risk_grid_repricings_total",
        "risk_grid_makespan_seconds",
        "risk_grid_batch_seconds",
        "risk_grid_repricings_per_watt",
    )
    FAULTS = (
        "risk_grid_repartitions_total",
        "risk_grid_rescheduled_total",
        "risk_grid_failed_scenarios_total",
        "risk_grid_wasted_seconds",
    )

    @pytest.mark.parametrize(
        "spec", [None, "crash:card=1,at=0.0005,repair=0.0005"]
    )
    def test_rollup_published_and_spans_cover_busy_time(
        self, risk_scenario, book, spec
    ):
        telemetry = Telemetry.recording()
        timing = simulate_grid_run(
            shard_scenarios(40, 4),
            book.options,
            risk_scenario.yield_curve(),
            risk_scenario.hazard_curve(),
            scenario=risk_scenario,
            policy="least-loaded",
            telemetry=telemetry,
            faults=FaultPlan.from_spec(spec, seed=7) if spec else None,
        )
        m = telemetry.metrics
        names = set(m.names())
        assert set(self.BASE) <= names
        assert bool(set(self.FAULTS) & names) == (spec is not None)
        n_failed = getattr(timing, "n_failed_scenarios", 0)
        assert m.get("risk_grid_scenarios_total").value == timing.n_scenarios
        assert m.get("risk_grid_dispatches_total").value == timing.dispatches
        assert m.get("risk_grid_repricings_total").value == (
            (timing.n_scenarios - n_failed) * timing.n_positions
        )
        assert m.get("risk_grid_makespan_seconds").value == timing.makespan_seconds
        assert m.get("risk_grid_batch_seconds").value == timing.batch_seconds
        for card in timing.cards:
            spans = telemetry.recorder.for_track(f"card{card.card_id}")
            busy = sum(s.duration_s for s in spans if s.category == "resource")
            assert busy == pytest.approx(card.seconds, rel=1e-9, abs=1e-15)
