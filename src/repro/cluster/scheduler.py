"""Portfolio sharding policies for the cluster scheduler.

The paper decomposes a batch across engines by "splitting the entire set up
into N chunks" (Section IV) — a static contiguous partition, which is
optimal when every option costs the same.  Real portfolios are skewed: a
10-year monthly contract carries ~30x the time points of a 1-year annual
one, so a static split can leave most cards idle while one finishes its
expensive chunk.  The cluster layer therefore makes the policy pluggable.

Every policy implements the same contract: given the per-option cost vector
and a card count, return a partition of the option *indices* — each index
assigned to exactly one card.  Numerical results are therefore identical
under every policy (the cluster merges spreads back in input order); only
the load balance, and hence the makespan, differs.

Three policies ship:

``round-robin``
    Index ``i`` goes to card ``i % n_cards``.  Zero scheduling cost,
    oblivious to option cost.
``least-loaded``
    Greedy longest-processing-time: options sorted by descending cost,
    each assigned to the currently least-loaded card.  The classic 4/3
    makespan approximation.
``work-stealing``
    The portfolio is cut into small contiguous chunks held in one shared
    queue; each card pulls the next chunk whenever it goes idle.  This is
    the steady-state behaviour of a work-stealing deque with a single
    victim pool, simulated in virtual time.
"""

from __future__ import annotations

import abc
import heapq
import math
from collections.abc import Sequence

from repro.core.validation import check_count
from repro.errors import ValidationError

__all__ = [
    "ClusterScheduler",
    "RoundRobinScheduler",
    "LeastLoadedScheduler",
    "WorkStealingScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "shard_scenarios",
    "validate_partition",
]


class ClusterScheduler(abc.ABC):
    """Interface shared by all sharding policies.

    Subclasses implement :meth:`partition`; everything else (validation,
    dispatch counting) is shared.
    """

    #: Registry key; subclasses override.
    name = "abstract"

    @abc.abstractmethod
    def partition(
        self, costs: Sequence[float], n_cards: int
    ) -> list[list[int]]:
        """Shard option indices across cards.

        Parameters
        ----------
        costs:
            Per-option cost proxy (the cluster passes schedule lengths —
            the dominant loop trip count of every engine stage).
        n_cards:
            Cards available.

        Returns
        -------
        list[list[int]]
            One index list per card, disjoint and jointly covering
            ``range(len(costs))``.  Cards may receive empty lists when
            there are more cards than options.
        """

    def dispatches(self, assignment: list[list[int]]) -> int:
        """Chunk dispatches the host performs for ``assignment``.

        Static policies hand each active card exactly one chunk; the
        work-stealing policy overrides this to count every stolen chunk.
        """
        return sum(1 for chunk in assignment if chunk)

    def _check_cards(self, n_cards: int) -> None:
        if not n_cards >= 1:  # once per dispatch: inline, NaN fails too
            raise ValidationError(f"n_cards must be >= 1, got {n_cards}")


class RoundRobinScheduler(ClusterScheduler):
    """Cost-oblivious cyclic assignment: index ``i`` to card ``i % n``."""

    name = "round-robin"

    def partition(
        self, costs: Sequence[float], n_cards: int
    ) -> list[list[int]]:
        """Shard indices cyclically; see :meth:`ClusterScheduler.partition`."""
        self._check_cards(n_cards)
        assignment: list[list[int]] = [[] for _ in range(n_cards)]
        for i in range(len(costs)):
            assignment[i % n_cards].append(i)
        return assignment


class LeastLoadedScheduler(ClusterScheduler):
    """Greedy longest-processing-time-first assignment.

    Options are visited in descending cost order (ties broken by index for
    determinism) and each is placed on the card with the smallest load so
    far — Graham's LPT heuristic, within 4/3 of the optimal makespan.
    """

    name = "least-loaded"

    def partition(
        self, costs: Sequence[float], n_cards: int
    ) -> list[list[int]]:
        """Shard indices greedily; see :meth:`ClusterScheduler.partition`."""
        self._check_cards(n_cards)
        assignment: list[list[int]] = [[] for _ in range(n_cards)]
        # Heap of (load, card) — ties resolve to the lowest card id.
        loads = [(0.0, c) for c in range(n_cards)]
        heapq.heapify(loads)
        order = sorted(range(len(costs)), key=lambda i: (-costs[i], i))
        for i in order:
            load, card = heapq.heappop(loads)
            assignment[card].append(i)
            heapq.heappush(loads, (load + costs[i], card))
        for chunk in assignment:
            chunk.sort()
        return assignment


class WorkStealingScheduler(ClusterScheduler):
    """Dynamic chunk pulling from one shared queue, in virtual time.

    The portfolio is cut into contiguous chunks of ``chunk_size`` options;
    whenever a card goes idle it takes the next chunk from the front of the
    queue.  Small chunks track skew closely at the price of more dispatch
    overhead (each pull is one host dispatch); ``chunk_size=None`` picks
    ``ceil(n / (4 * n_cards))`` — four pulls per card on a uniform
    portfolio, a standard self-scheduling compromise.

    Parameters
    ----------
    chunk_size:
        Options per stolen chunk, or ``None`` for the adaptive default.
    """

    name = "work-stealing"

    def __init__(self, chunk_size: int | None = None) -> None:
        if chunk_size is not None:
            check_count(chunk_size, "chunk_size")
        self.chunk_size = chunk_size

    def _resolve_chunk(self, n_options: int, n_cards: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, math.ceil(n_options / (4 * n_cards)))

    def partition(
        self, costs: Sequence[float], n_cards: int
    ) -> list[list[int]]:
        """Shard indices by simulated stealing; see :meth:`ClusterScheduler.partition`."""
        self._check_cards(n_cards)
        n = len(costs)
        size = self._resolve_chunk(n, n_cards)
        chunks = [list(range(s, min(s + size, n))) for s in range(0, n, size)]

        assignment: list[list[int]] = [[] for _ in range(n_cards)]
        # Virtual clock per card; the idlest card steals the next chunk.
        clocks = [(0.0, c) for c in range(n_cards)]
        heapq.heapify(clocks)
        for chunk in chunks:
            t, card = heapq.heappop(clocks)
            assignment[card].extend(chunk)
            heapq.heappush(clocks, (t + sum(costs[i] for i in chunk), card))
        return assignment

    def dispatches(self, assignment: list[list[int]]) -> int:
        """One host dispatch per stolen chunk.

        Recomputed from the assignment's own shape (total options and card
        count resolve the chunk size), so the count is correct for any
        partition this policy produced, not just the most recent one.
        """
        n = sum(len(chunk) for chunk in assignment)
        if n == 0:
            return 0
        size = self._resolve_chunk(n, len(assignment))
        return math.ceil(n / size)


#: Policy registry used by the CLI and :func:`make_scheduler`.
SCHEDULERS: dict[str, type[ClusterScheduler]] = {
    RoundRobinScheduler.name: RoundRobinScheduler,
    LeastLoadedScheduler.name: LeastLoadedScheduler,
    WorkStealingScheduler.name: WorkStealingScheduler,
}


def make_scheduler(policy: str, **kwargs) -> ClusterScheduler:
    """Instantiate a policy by registry name.

    Parameters
    ----------
    policy:
        One of :data:`SCHEDULERS` (``round-robin``, ``least-loaded``,
        ``work-stealing``).
    **kwargs:
        Forwarded to the policy constructor (e.g. ``chunk_size``).

    Raises
    ------
    ValidationError
        For an unknown policy name.
    """
    try:
        cls = SCHEDULERS[policy]
    except KeyError:
        raise ValidationError(
            f"unknown scheduler policy {policy!r}; "
            f"choose from {sorted(SCHEDULERS)}"
        ) from None
    return cls(**kwargs)


def shard_scenarios(
    n_scenarios: int,
    n_cards: int,
    scheduler: ClusterScheduler | str = "least-loaded",
) -> list[list[int]]:
    """Partition scenario indices across cards with a cluster policy.

    Every scenario reprices the same portfolio, so the cost vector is
    uniform; the policies then differ only in chunk shape (contiguity,
    dispatch counts), not balance.  The one card plan of the risk engine.

    Parameters
    ----------
    n_scenarios:
        Scenarios to shard.
    n_cards:
        Cards available.
    scheduler:
        Policy instance or registry name.

    Returns
    -------
    list[list[int]]
        One sorted scenario-index list per card, jointly covering the grid.
    """
    check_count(n_scenarios, "n_scenarios")
    sched = (
        make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
    )
    assignment = sched.partition([1.0] * n_scenarios, n_cards)
    validate_partition(assignment, n_scenarios)
    for chunk in assignment:
        chunk.sort()
    return assignment


def validate_partition(assignment: list[list[int]], n_options: int) -> None:
    """Check that ``assignment`` is an exact partition of the portfolio.

    Parameters
    ----------
    assignment:
        Per-card index lists as returned by a policy.
    n_options:
        Portfolio size the partition must cover.

    Raises
    ------
    ValidationError
        If any index is missing, duplicated, or out of range.
    """
    seen: set[int] = set()
    for chunk in assignment:
        for i in chunk:
            if not 0 <= i < n_options:
                raise ValidationError(
                    f"scheduler produced out-of-range index {i}"
                )
            if i in seen:
                raise ValidationError(
                    f"scheduler assigned option {i} to two cards"
                )
            seen.add(i)
    if len(seen) != n_options:
        missing = sorted(set(range(n_options)) - seen)[:5]
        raise ValidationError(
            f"scheduler dropped {n_options - len(seen)} option(s), "
            f"first missing: {missing}"
        )
