"""Consistent-hash routing of book/contract keys onto quote servers.

The gateway shards client demand across N :class:`~repro.serving.engine.
QuoteServer` replicas by *key*, not round-robin: every request carries a
book/contract key (the quoted option, or the market row a reval/VaR
reprices first), and the ring maps each key to one server.  Keyed
routing is what makes the gateway's quote cache and the servers'
micro-batch coalescing compose — identical requests always land on the
same server, so one in-flight kernel row can answer all of them.

The ring is the classic consistent-hash construction: every server owns
``replicas`` virtual points on a 2^32 hash circle, and a key routes to
the first server point clockwise of the key's hash.  Draining a server
removes only that server's points, so only the keys it owned move —
the 1/N rebalance guarantee that motivates the structure.  Hashing uses
:mod:`hashlib` (stable across processes), never Python's salted
``hash()``.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.core.validation import check_count
from repro.errors import ValidationError
from repro.serving.request import PricingRequest

__all__ = ["HashRing", "route_key"]

#: Virtual points per server on the ring; enough for a few-percent
#: load spread at single-digit server counts.
DEFAULT_REPLICAS = 64


def _hash32(token: str) -> int:
    """Stable 32-bit ring position of a token."""
    return int.from_bytes(hashlib.md5(token.encode()).digest()[:4], "big")


def route_key(request: PricingRequest) -> str:
    """The book/contract routing key of one request.

    Quotes key on the contract being quoted — all tenants asking for the
    same name share a server (and therefore a cache line and a
    micro-batch row).  Revals and VaR refreshes key on their first
    market row, spreading book-wide work across the ring.
    """
    if request.kind == "quote":
        return f"opt:{request.option_index}"
    return f"row:{request.rows[0]}"


class HashRing:
    """Consistent-hash ring over integer server ids.

    Parameters
    ----------
    nodes:
        Initial server ids (at least one).
    replicas:
        Virtual points per server (>= 1).
    """

    def __init__(self, nodes, *, replicas: int = DEFAULT_REPLICAS) -> None:
        check_count(replicas, "replicas")
        self.replicas = replicas
        self._nodes: set[int] = set()
        self._points: list[tuple[int, int]] = []  # (hash, node), sorted
        nodes = list(nodes)
        if not nodes:
            raise ValidationError("a hash ring needs at least one node")
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> tuple[int, ...]:
        """Live server ids, sorted."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def _rebuild(self) -> None:
        self._points = sorted(
            (_hash32(f"node:{node}:vn:{v}"), node)
            for node in self._nodes
            for v in range(self.replicas)
        )

    def add(self, node: int) -> None:
        """Add a server's virtual points to the ring."""
        if node in self._nodes:
            raise ValidationError(f"node {node} is already on the ring")
        self._nodes.add(node)
        self._rebuild()

    def drain(self, node: int) -> None:
        """Remove a server; only the keys it owned move elsewhere."""
        if node not in self._nodes:
            raise ValidationError(f"node {node} is not on the ring")
        if len(self._nodes) == 1:
            raise ValidationError("cannot drain the last node on the ring")
        self._nodes.remove(node)
        self._rebuild()

    def route(self, key: str) -> int:
        """The server owning ``key``: first point clockwise of its hash."""
        h = _hash32(key)
        i = bisect.bisect_right(self._points, (h, 1 << 33))
        if i == len(self._points):
            i = 0  # wrap past the top of the circle
        return self._points[i][1]

    def route_request(self, request: PricingRequest) -> int:
        """Route one request by its :func:`route_key`."""
        return self.route(route_key(request))
