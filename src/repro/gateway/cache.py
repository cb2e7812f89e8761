"""Market-state-keyed quote cache with single-flight dedup.

The headline economics of the gateway: quotes are deterministic
functions of their (market row, contract) key — the kernel's spread
surface depends only on the rows priced, never on which request asked —
so identical requests across tenants can share one kernel row.  The
cache exploits that two ways:

* **single-flight** — the first request for a key (the *leader*) is
  dispatched; concurrent requests for the same key while the leader is
  in flight (*joiners*) attach to the leader's entry and receive the
  leader's value at the leader's completion instant, never costing a
  second kernel row;
* **hits** — requests arriving after the leader completed get the
  cached value at a fixed small lookup latency.

Both reply paths are **bit-identical** to an uncached reprice — the
property suite pins it — because the serving layer already pins batched
values equal to individual pricing, and the cache only ever replays a
value the kernel produced for exactly that key.

Invalidation is tick-driven: the market tape publishes row updates (a
seeded tick stream), and a tick on row *r* drops every cached entry
keyed on *r*.  A pending (in-flight) entry that gets invalidated stops
accepting joiners — its existing joiners still resolve from the leader
— and the next request for the key becomes a fresh leader.

Only ``quote`` requests are cached: revals and VaR refreshes are
book-level aggregates with per-tenant row sets, the wrong shape for a
shared key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.validation import check_non_negative_finite
from repro.errors import ValidationError
from repro.serving.request import PricingRequest

__all__ = ["CacheStats", "QuoteCache", "CacheEntry", "DEFAULT_HIT_LATENCY_S"]

#: Simulated latency of answering from the cache: one gateway-local
#: lookup, no host dispatch and no card window.
DEFAULT_HIT_LATENCY_S = 20e-6


@dataclass
class CacheStats:
    """Tallies of one replay's cache traffic.

    ``lookups`` counts cacheable (quote) requests that consulted the
    cache; every one is exactly a hit, a join, or a miss.
    """

    lookups: int = 0
    hits: int = 0
    joins: int = 0
    misses: int = 0
    insertions: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Served-from-cache fraction of cacheable lookups."""
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def dedup_rate(self) -> float:
        """Fraction of cacheable lookups that cost no kernel row."""
        return (self.hits + self.joins) / self.lookups if self.lookups else 0.0


@dataclass
class CacheEntry:
    """One key's cache line: pending (leader in flight) or ready."""

    key: tuple[int, int]
    leader_id: int
    ready: bool = False
    live: bool = True  # still reachable under its key (not invalidated)
    value: float = 0.0
    ready_s: float = 0.0
    formed_s: float = 0.0
    batch_id: int = -1
    cards: tuple[int, ...] = ()
    waiters: list[PricingRequest] = field(default_factory=list)


def cache_key(request: PricingRequest) -> tuple[int, int] | None:
    """The market-state cache key of a request (``None`` = uncacheable)."""
    if request.kind != "quote":
        return None
    return (request.rows[0], request.option_index)


class QuoteCache:
    """Single-flight quote cache keyed on (market row, contract).

    Parameters
    ----------
    hit_latency_s:
        Simulated gateway-local latency of a cache hit (>= 0).
    """

    def __init__(self, *, hit_latency_s: float = DEFAULT_HIT_LATENCY_S) -> None:
        check_non_negative_finite(hit_latency_s, "hit_latency_s")
        self.hit_latency_s = hit_latency_s
        self.stats = CacheStats()
        self._entries: dict[tuple[int, int], CacheEntry] = {}
        self._leaders: dict[int, CacheEntry] = {}
        self._by_row: dict[int, set[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: tuple[int, int]) -> CacheEntry | None:
        """The live entry under ``key``, if any (no stats side effects)."""
        return self._entries.get(key)

    def begin(self, key: tuple[int, int], leader: PricingRequest) -> CacheEntry:
        """Open a pending entry with ``leader`` as its single flight."""
        if key in self._entries:
            raise ValidationError(f"cache key {key} already has a live entry")
        entry = CacheEntry(key=key, leader_id=leader.request_id)
        self._entries[key] = entry
        self._leaders[leader.request_id] = entry
        self._by_row.setdefault(key[0], set()).add(key)
        self.stats.insertions += 1
        return entry

    def leader_entry(self, request_id: int) -> CacheEntry | None:
        """The entry a request leads, if it leads one."""
        return self._leaders.get(request_id)

    def fulfil(
        self,
        request_id: int,
        *,
        value: float,
        ready_s: float,
        formed_s: float,
        batch_id: int,
        cards: tuple[int, ...],
    ) -> CacheEntry | None:
        """Mark a leader's entry ready with the kernel's answer.

        Returns the entry (its ``waiters`` are the caller's to resolve)
        or ``None`` when the request leads nothing.
        """
        entry = self._leaders.pop(request_id, None)
        if entry is None:
            return None
        entry.ready = True
        entry.value = value
        entry.ready_s = ready_s
        entry.formed_s = formed_s
        entry.batch_id = batch_id
        entry.cards = cards
        return entry

    def abandon(self, request_id: int) -> CacheEntry | None:
        """Drop a leader's entry (the leader was shed or failed).

        The entry leaves the key map so the next identical request
        becomes a fresh leader; its joiners are returned for the caller
        to terminate alongside the leader.
        """
        entry = self._leaders.pop(request_id, None)
        if entry is None:
            return None
        self._drop(entry)
        return entry

    def _drop(self, entry: CacheEntry) -> None:
        if entry.live:
            entry.live = False
            self._entries.pop(entry.key, None)
            keys = self._by_row.get(entry.key[0])
            if keys is not None:
                keys.discard(entry.key)
                if not keys:
                    del self._by_row[entry.key[0]]

    def invalidate_row(self, row: int) -> int:
        """Drop every entry keyed on ``row`` (a market tick landed on it).

        Pending entries are unlinked but their leaders stay tracked, so
        in-flight work still resolves its joiners.  Returns how many
        entries were dropped.
        """
        keys = self._by_row.get(row)
        if not keys:
            return 0
        dropped = 0
        for key in list(keys):
            self._drop(self._entries[key])
            dropped += 1
        self.stats.invalidations += dropped
        return dropped
