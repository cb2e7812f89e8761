"""Fault plans: declarative, seeded failure schedules for a run.

A :class:`FaultPlan` is the single source of truth for *what goes wrong
and when* during a simulated run.  It is a frozen, validated composition
of injectable events on the shared :class:`~repro.sim.Simulation` clock:

* :class:`CardCrash` — a card stops serving at an instant, either
  permanently or until a repair completes;
* :class:`CardSlowdown` — a straggler window: the card's service times
  inflate by a multiplicative factor;
* :class:`LinkDegradation` — host-link dispatch times stretch by a
  factor over a window;
* :class:`LinkOutage` — the host thread cannot issue dispatches at all
  during a window.

Correlated multi-card failures are just several :class:`CardCrash`
events sharing an instant (:func:`correlated_crash` builds them).

Because the plan is pure data and the retry/hedge jitter stream is
seeded from :attr:`FaultPlan.seed`, a run under a given plan is
bit-reproducible: same seed + same plan ⇒ identical fault reports.

The ``--faults`` CLI flag accepts the compact spec grammar parsed by
:meth:`FaultPlan.from_spec`::

    crash:card=1,at=0.15,repair=0.1
    slow:card=2,at=0.1,for=0.2,factor=4
    link:at=0.1,for=0.05,factor=2.5
    linkout:at=0.1,for=0.02
    correlated:cards=0+1,at=0.15,repair=0.1

joined by ``;`` for composite plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.validation import (
    check_index,
    check_non_negative_finite,
    check_positive_finite,
    check_range,
)
from repro.errors import ValidationError

__all__ = [
    "CardCrash",
    "CardSlowdown",
    "LinkDegradation",
    "LinkOutage",
    "FaultPlan",
    "correlated_crash",
]


@dataclass(frozen=True)
class CardCrash:
    """A card stops serving at ``at_s``.

    Attributes
    ----------
    card:
        Which card crashes.
    at_s:
        Crash instant on the simulation clock.
    repair_s:
        Repair time; the card is back at ``at_s + repair_s``.  ``None``
        means the crash is permanent.
    """

    card: int
    at_s: float
    repair_s: float | None = None

    def __post_init__(self) -> None:
        check_index(self.card, "card")
        check_non_negative_finite(self.at_s, "at_s")
        if self.repair_s is not None:
            check_positive_finite(self.repair_s, "repair_s")

    @property
    def down_until_s(self) -> float:
        """End of the outage window (``inf`` for a permanent crash)."""
        return math.inf if self.repair_s is None else self.at_s + self.repair_s

    def spec(self) -> str:
        """The compact-spec rendering of this event."""
        out = f"crash:card={self.card},at={self.at_s:g}"
        if self.repair_s is not None:
            out += f",repair={self.repair_s:g}"
        return out


@dataclass(frozen=True)
class CardSlowdown:
    """A straggler window: service times on ``card`` inflate by ``factor``.

    Attributes
    ----------
    card:
        Which card straggles.
    at_s / duration_s:
        Window ``[at_s, at_s + duration_s)``.
    factor:
        Multiplicative service-time inflation (``> 1``).
    """

    card: int
    at_s: float
    duration_s: float
    factor: float

    def __post_init__(self) -> None:
        check_index(self.card, "card")
        check_non_negative_finite(self.at_s, "at_s")
        check_positive_finite(self.duration_s, "duration_s")
        check_range(self.factor, "factor", "(1, inf)")

    @property
    def until_s(self) -> float:
        """End of the straggler window."""
        return self.at_s + self.duration_s

    def spec(self) -> str:
        """The compact-spec rendering of this event."""
        return (
            f"slow:card={self.card},at={self.at_s:g},"
            f"for={self.duration_s:g},factor={self.factor:g}"
        )


@dataclass(frozen=True)
class LinkDegradation:
    """Host-link dispatch times stretch by ``factor`` over a window."""

    at_s: float
    duration_s: float
    factor: float

    def __post_init__(self) -> None:
        check_non_negative_finite(self.at_s, "at_s")
        check_positive_finite(self.duration_s, "duration_s")
        check_range(self.factor, "factor", "(1, inf)")

    @property
    def until_s(self) -> float:
        """End of the degradation window."""
        return self.at_s + self.duration_s

    def spec(self) -> str:
        """The compact-spec rendering of this event."""
        return (
            f"link:at={self.at_s:g},for={self.duration_s:g},"
            f"factor={self.factor:g}"
        )


@dataclass(frozen=True)
class LinkOutage:
    """The host thread cannot issue dispatches during a window."""

    at_s: float
    duration_s: float

    def __post_init__(self) -> None:
        check_non_negative_finite(self.at_s, "at_s")
        check_positive_finite(self.duration_s, "duration_s")

    @property
    def until_s(self) -> float:
        """End of the outage window."""
        return self.at_s + self.duration_s

    def spec(self) -> str:
        """The compact-spec rendering of this event."""
        return f"linkout:at={self.at_s:g},for={self.duration_s:g}"


def correlated_crash(
    cards, at_s: float, repair_s: float | None = None
) -> tuple[CardCrash, ...]:
    """Crash several cards at the same instant (a correlated failure).

    Parameters
    ----------
    cards:
        Card indices that fail together (e.g. one host's PCIe root).
    at_s / repair_s:
        Shared crash instant and (optional) shared repair time.
    """
    cards = tuple(cards)
    if not cards:
        raise ValidationError("a correlated crash needs at least one card")
    return tuple(CardCrash(card=c, at_s=at_s, repair_s=repair_s) for c in cards)


#: Event types a plan may carry (the union the injectors switch on).
FaultEvent = CardCrash | CardSlowdown | LinkDegradation | LinkOutage


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered schedule of fault events for one run.

    Attributes
    ----------
    events:
        The fault events, stored sorted by ``(at_s, spec)`` so two plans
        with the same events compare equal regardless of input order.
    seed:
        Seed of the retry/hedge jitter stream consumed while the plan is
        live.  Same seed + same events ⇒ bit-identical runs.
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(
                event, (CardCrash, CardSlowdown, LinkDegradation, LinkOutage)
            ):
                raise ValidationError(
                    f"unknown fault event type {type(event).__name__!r}"
                )
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.at_s, e.spec()))
        )
        object.__setattr__(self, "events", ordered)

    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """Whether the plan injects nothing (the conformance baseline)."""
        return not self.events

    @property
    def crashes(self) -> tuple[CardCrash, ...]:
        """Card-crash events, in time order."""
        return tuple(e for e in self.events if isinstance(e, CardCrash))

    @property
    def slowdowns(self) -> tuple[CardSlowdown, ...]:
        """Straggler windows, in time order."""
        return tuple(e for e in self.events if isinstance(e, CardSlowdown))

    @property
    def link_degradations(self) -> tuple[LinkDegradation, ...]:
        """Host-link degradation windows, in time order."""
        return tuple(e for e in self.events if isinstance(e, LinkDegradation))

    @property
    def link_outages(self) -> tuple[LinkOutage, ...]:
        """Host-link outage windows, in time order."""
        return tuple(e for e in self.events if isinstance(e, LinkOutage))

    def max_card(self) -> int:
        """Largest card index any event references (-1 when none do)."""
        cards = [
            e.card for e in self.events if isinstance(e, (CardCrash, CardSlowdown))
        ]
        return max(cards) if cards else -1

    def validate_cards(self, n_cards: int) -> None:
        """Reject events referencing cards beyond the cluster."""
        if self.max_card() >= n_cards:
            raise ValidationError(
                f"fault plan references card {self.max_card()} but the "
                f"cluster has {n_cards} card(s)"
            )

    def spec(self) -> str:
        """Compact-spec rendering (parses back via :meth:`from_spec`)."""
        return ";".join(e.spec() for e in self.events)

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Parse the compact ``--faults`` grammar into a plan.

        ``spec`` is ``;``-joined events, each ``kind:key=value,...``:

        ``crash:card=C,at=T[,repair=R]``
            Card ``C`` crashes at ``T`` (permanently without ``repair``).
        ``slow:card=C,at=T,for=D,factor=F``
            Card ``C`` straggles for ``D`` seconds with service x ``F``.
        ``link:at=T,for=D,factor=F``
            Host-link dispatch times stretch by ``F`` for ``D`` seconds.
        ``linkout:at=T,for=D``
            The host link is down entirely for ``D`` seconds.
        ``correlated:cards=C1+C2+...,at=T[,repair=R]``
            All listed cards crash together at ``T``.

        An empty (or all-whitespace) spec yields the empty plan.
        """
        events: list[FaultEvent] = []
        for part in (p.strip() for p in spec.split(";")):
            if not part:
                continue
            if ":" not in part:
                raise ValidationError(
                    f"bad fault spec {part!r}: expected 'kind:key=value,...'"
                )
            kind, _, body = part.partition(":")
            kind = kind.strip()
            kv: dict[str, str] = {}
            for item in body.split(","):
                if "=" not in item:
                    raise ValidationError(
                        f"bad fault spec item {item!r} in {part!r}: "
                        "expected 'key=value'"
                    )
                key, _, value = item.partition("=")
                kv[key.strip()] = value.strip()
            events.extend(cls._parse_event(kind, kv, part))
        return cls(events=tuple(events), seed=seed)

    @staticmethod
    def _parse_event(kind: str, kv: dict[str, str], part: str):
        def need(*keys):
            missing = [k for k in keys if k not in kv]
            if missing:
                raise ValidationError(
                    f"fault spec {part!r} is missing {missing}"
                )
            extra = set(kv) - set(keys) - {"repair"}
            if kind not in ("crash", "correlated"):
                extra = set(kv) - set(keys)
            if extra:
                raise ValidationError(
                    f"fault spec {part!r} has unknown keys {sorted(extra)}"
                )

        def num(key, kind=float):
            try:
                return kind(kv[key])
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise ValidationError(
                    f"fault spec {part!r}: {key}={kv[key]!r} is not {what}"
                ) from None

        if kind == "crash":
            need("card", "at")
            return [
                CardCrash(
                    card=num("card", int),
                    at_s=num("at"),
                    repair_s=num("repair") if "repair" in kv else None,
                )
            ]
        if kind == "slow":
            need("card", "at", "for", "factor")
            return [
                CardSlowdown(
                    card=num("card", int),
                    at_s=num("at"),
                    duration_s=num("for"),
                    factor=num("factor"),
                )
            ]
        if kind == "link":
            need("at", "for", "factor")
            return [
                LinkDegradation(
                    at_s=num("at"), duration_s=num("for"), factor=num("factor")
                )
            ]
        if kind == "linkout":
            need("at", "for")
            return [LinkOutage(at_s=num("at"), duration_s=num("for"))]
        if kind == "correlated":
            need("cards", "at")
            try:
                cards = tuple(int(c) for c in kv["cards"].split("+") if c)
            except ValueError:
                raise ValidationError(
                    f"fault spec {part!r}: cards={kv['cards']!r} must be "
                    "'+'-joined integers"
                ) from None
            return list(
                correlated_crash(
                    cards,
                    num("at"),
                    num("repair") if "repair" in kv else None,
                )
            )
        raise ValidationError(
            f"unknown fault kind {kind!r} in {part!r}; choose from "
            "['correlated', 'crash', 'link', 'linkout', 'slow']"
        )
