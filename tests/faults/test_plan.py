"""FaultPlan construction, validation and spec-grammar round-trips."""

from __future__ import annotations

import math

import pytest

from repro.errors import ValidationError
from repro.faults import (
    CardCrash,
    CardSlowdown,
    FaultPlan,
    LinkDegradation,
    LinkOutage,
    correlated_crash,
)


class TestEvents:
    def test_permanent_crash_down_forever(self):
        crash = CardCrash(card=1, at_s=0.5)
        assert math.isinf(crash.down_until_s)

    def test_repaired_crash_window(self):
        crash = CardCrash(card=0, at_s=0.5, repair_s=0.25)
        assert crash.down_until_s == 0.75

    def test_crash_validation(self):
        with pytest.raises(ValidationError):
            CardCrash(card=-1, at_s=0.0)
        with pytest.raises(ValidationError):
            CardCrash(card=0, at_s=-1.0)
        with pytest.raises(ValidationError):
            CardCrash(card=0, at_s=0.0, repair_s=0.0)

    def test_slowdown_validation(self):
        with pytest.raises(ValidationError):
            CardSlowdown(card=0, at_s=0.0, duration_s=0.0, factor=2.0)
        with pytest.raises(ValidationError):
            CardSlowdown(card=0, at_s=0.0, duration_s=1.0, factor=1.0)
        with pytest.raises(ValidationError):
            CardSlowdown(card=0, at_s=0.0, duration_s=1.0, factor=math.inf)

    def test_link_validation(self):
        with pytest.raises(ValidationError):
            LinkDegradation(at_s=0.0, duration_s=1.0, factor=0.5)
        with pytest.raises(ValidationError):
            LinkOutage(at_s=0.0, duration_s=-1.0)

    def test_correlated_crash_builds_per_card_events(self):
        events = correlated_crash((0, 2), 0.1, 0.05)
        assert [e.card for e in events] == [0, 2]
        assert all(e.at_s == 0.1 and e.repair_s == 0.05 for e in events)
        with pytest.raises(ValidationError):
            correlated_crash((), 0.1)


class TestPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan(
            events=(
                CardCrash(card=0, at_s=0.5),
                CardSlowdown(card=1, at_s=0.1, duration_s=0.2, factor=3.0),
            )
        )
        assert [e.at_s for e in plan.events] == [0.1, 0.5]

    def test_input_order_irrelevant_for_equality(self):
        a = CardCrash(card=0, at_s=0.5)
        b = LinkOutage(at_s=0.1, duration_s=0.2)
        assert FaultPlan(events=(a, b)) == FaultPlan(events=(b, a))

    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert FaultPlan.from_spec("").is_empty
        assert FaultPlan.from_spec("  ;  ").is_empty

    def test_typed_views(self):
        plan = FaultPlan.from_spec(
            "crash:card=0,at=0.1;slow:card=1,at=0.2,for=0.1,factor=2;"
            "link:at=0.3,for=0.1,factor=3;linkout:at=0.4,for=0.05"
        )
        assert len(plan.crashes) == 1
        assert len(plan.slowdowns) == 1
        assert len(plan.link_degradations) == 1
        assert len(plan.link_outages) == 1

    def test_validate_cards(self):
        plan = FaultPlan.from_spec("crash:card=3,at=0.1")
        assert plan.max_card() == 3
        plan.validate_cards(4)
        with pytest.raises(ValidationError):
            plan.validate_cards(3)

    def test_rejects_foreign_event_type(self):
        with pytest.raises(ValidationError):
            FaultPlan(events=("not-an-event",))


class TestSpecGrammar:
    @pytest.mark.parametrize(
        "spec",
        [
            "crash:card=1,at=0.15",
            "crash:card=1,at=0.15,repair=0.1",
            "slow:card=2,at=0.1,for=0.2,factor=4",
            "link:at=0.1,for=0.05,factor=2.5",
            "linkout:at=0.1,for=0.02",
            "crash:card=0,at=0.1;slow:card=1,at=0.2,for=0.1,factor=2",
        ],
    )
    def test_round_trip(self, spec):
        plan = FaultPlan.from_spec(spec)
        assert FaultPlan.from_spec(plan.spec()) == plan

    def test_correlated_expands_to_crashes(self):
        plan = FaultPlan.from_spec("correlated:cards=0+1+3,at=0.2,repair=0.1")
        assert [c.card for c in plan.crashes] == [0, 1, 3]
        assert all(c.at_s == 0.2 for c in plan.crashes)
        # The rendered spec is per-card crash events; still parses back.
        assert FaultPlan.from_spec(plan.spec()) == plan

    def test_seed_carried(self):
        assert FaultPlan.from_spec("crash:card=0,at=0.1", seed=9).seed == 9

    @pytest.mark.parametrize(
        "bad",
        [
            "nonsense",
            "explode:card=1,at=0",
            "crash:card=1",  # missing at
            "crash:at=0.1",  # missing card
            "slow:card=1,at=0.1,for=0.2",  # missing factor
            "crash:card=x,at=0.1",
            "crash:card=nan,at=0.1",
            "crash:card=inf,at=0.1",
            "slow:card=1.5,at=0.1,for=0.2,factor=2",
            "crash:card=1,at=0.1,bogus=3",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValidationError):
            FaultPlan.from_spec(bad)
