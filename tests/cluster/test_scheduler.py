"""Unit tests for the cluster sharding policies."""

import pytest

from repro.cluster.scheduler import (
    SCHEDULERS,
    LeastLoadedScheduler,
    RoundRobinScheduler,
    WorkStealingScheduler,
    make_scheduler,
    validate_partition,
)
from repro.errors import ValidationError

SKEWED = [1.0, 50.0, 2.0, 3.0, 40.0, 1.0, 2.0, 60.0, 1.0, 1.0, 2.0, 3.0]


def loads(assignment, costs):
    return [sum(costs[i] for i in chunk) for chunk in assignment]


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(SCHEDULERS) == {"round-robin", "least-loaded", "work-stealing"}

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_make_scheduler(self, name):
        assert make_scheduler(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(ValidationError, match="unknown scheduler"):
            make_scheduler("fifo")


class TestPartitionContract:
    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("n_cards", [1, 2, 3, 5, 20])
    def test_exact_partition(self, name, n_cards):
        assignment = make_scheduler(name).partition(SKEWED, n_cards)
        assert len(assignment) == n_cards
        validate_partition(assignment, len(SKEWED))

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_empty_portfolio(self, name):
        assignment = make_scheduler(name).partition([], 3)
        assert assignment == [[], [], []]

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_more_cards_than_options(self, name):
        assignment = make_scheduler(name).partition([1.0, 1.0], 5)
        validate_partition(assignment, 2)
        assert sum(1 for c in assignment if not c) == 3

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_one_card_gets_everything(self, name):
        assignment = make_scheduler(name).partition(SKEWED, 1)
        assert assignment == [list(range(len(SKEWED)))]

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_zero_cards_rejected(self, name):
        with pytest.raises(ValidationError):
            make_scheduler(name).partition(SKEWED, 0)

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_deterministic(self, name):
        a = make_scheduler(name).partition(SKEWED, 3)
        b = make_scheduler(name).partition(SKEWED, 3)
        assert a == b


class TestRoundRobin:
    def test_cyclic_layout(self):
        assignment = RoundRobinScheduler().partition([1.0] * 7, 3)
        assert assignment == [[0, 3, 6], [1, 4], [2, 5]]


class TestLeastLoaded:
    def test_balances_skew_better_than_round_robin(self):
        lpt = loads(LeastLoadedScheduler().partition(SKEWED, 3), SKEWED)
        rr = loads(RoundRobinScheduler().partition(SKEWED, 3), SKEWED)
        assert max(lpt) <= max(rr)

    def test_near_optimal_on_skewed(self):
        # Three dominant options (60, 50, 40) on three cards: LPT must put
        # one on each, so the makespan stays below a 2-dominant-option card.
        lpt = loads(LeastLoadedScheduler().partition(SKEWED, 3), SKEWED)
        assert max(lpt) < 90.0

    def test_chunks_sorted(self):
        for chunk in LeastLoadedScheduler().partition(SKEWED, 3):
            assert chunk == sorted(chunk)


class TestWorkStealing:
    def test_chunk_size_validation(self):
        with pytest.raises(ValidationError):
            WorkStealingScheduler(chunk_size=0)

    def test_contiguous_chunks(self):
        ws = WorkStealingScheduler(chunk_size=2)
        assignment = ws.partition([1.0] * 8, 2)
        for chunk in assignment:
            # Each card's options arrive as contiguous runs of chunk_size.
            for a, b in zip(chunk[::2], chunk[1::2]):
                assert b == a + 1

    def test_dispatch_count_is_chunk_pulls(self):
        ws = WorkStealingScheduler(chunk_size=2)
        assignment = ws.partition([1.0] * 8, 2)
        assert ws.dispatches(assignment) == 4

    def test_dispatch_count_not_stale_across_partitions(self):
        # dispatches() must describe the assignment it is given, not the
        # scheduler's most recent partition() call.
        ws = WorkStealingScheduler(chunk_size=2)
        big = ws.partition([1.0] * 100, 4)
        small = ws.partition([1.0] * 8, 4)
        assert ws.dispatches(big) == 50
        assert ws.dispatches(small) == 4

    def test_adapts_to_skew(self):
        ws = WorkStealingScheduler(chunk_size=1)
        balanced = loads(ws.partition(SKEWED, 3), SKEWED)
        static = loads(RoundRobinScheduler().partition(SKEWED, 3), SKEWED)
        assert max(balanced) <= max(static)


class TestValidatePartition:
    def test_missing_index(self):
        with pytest.raises(ValidationError, match="dropped"):
            validate_partition([[0], [2]], 3)

    def test_duplicate_index(self):
        with pytest.raises(ValidationError, match="two cards"):
            validate_partition([[0, 1], [1, 2]], 3)

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match="out-of-range"):
            validate_partition([[0, 5]], 2)
