"""ClusterHealth: the pure availability oracle over a fault plan, and the
timing rig that times dispatches against it."""

from __future__ import annotations

import math

import pytest

from repro.api.cost import ClusterTimingRig, DispatchCostModel, FailedWindow
from repro.cluster.interconnect import HostLinkModel
from repro.errors import ValidationError
from repro.faults import ClusterHealth, FaultPlan


def health(spec: str, n_cards: int = 4) -> ClusterHealth:
    return ClusterHealth(FaultPlan.from_spec(spec), n_cards)


def rig(n_cards: int = 2) -> ClusterTimingRig:
    cost = DispatchCostModel(
        invocation_seconds=1e-5,
        pcie_latency_s=2e-6,
        row_transfer_seconds=1e-7,
        cell_transfer_seconds=3e-8,
        cell_kernel_seconds=5e-7,
    )
    return ClusterTimingRig(cost, HostLinkModel(), n_cards)


class TestAvailability:
    def test_down_window_half_open(self):
        h = health("crash:card=1,at=0.1,repair=0.1")
        assert not h.card_down(1, 0.099)
        assert h.card_down(1, 0.1)
        assert h.card_down(1, 0.19)
        assert not h.card_down(1, 0.2)

    def test_permanent_crash_never_recovers(self):
        h = health("crash:card=0,at=0.5")
        assert h.card_down(0, 1e9)
        assert h.healthy_cards(1e9) == (1, 2, 3)

    def test_healthy_cards(self):
        h = health("crash:card=1,at=0.1,repair=0.1;crash:card=3,at=0.1,repair=0.1")
        assert h.healthy_cards(0.05) == (0, 1, 2, 3)
        assert h.healthy_cards(0.15) == (0, 2)
        assert h.capacity_reduced(0.15)
        assert not h.capacity_reduced(0.25)

    def test_empty_plan_keeps_every_card_up(self):
        h = ClusterHealth(FaultPlan(), 3)
        assert h.healthy_cards(0.5) == (0, 1, 2)
        assert not h.card_down(2, 0.5)
        assert not h.capacity_reduced(0.5)

    @pytest.mark.parametrize(
        "spec,touches",
        [
            ("", False),
            ("linkout:at=0.1,for=0.1", False),
            ("crash:card=1,at=1e9", True),
            ("slow:card=0,at=1e9,for=1,factor=2", True),
            ("link:at=1e9,for=1,factor=2", True),
        ],
    )
    def test_touches_timing_by_kind_of_event(self, spec, touches):
        """A link outage is host downtime, which the host resource
        applies itself; crashes, stragglers and link degradations touch
        a dispatch's timing however late they land."""
        assert health(spec).touches_timing is touches

    def test_plan_validated_against_cluster(self):
        with pytest.raises(ValidationError):
            health("crash:card=5,at=0.1", n_cards=4)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValidationError):
            ClusterHealth(FaultPlan(), 0)


class TestCrashDuring:
    def test_mid_window_crash_detected(self):
        h = health("crash:card=2,at=0.5,repair=0.1")
        assert h.crash_during(2, 0.4, 0.6) == 0.5
        assert h.crash_during(2, 0.6, 0.7) is None  # window after crash
        assert h.crash_during(2, 0.2, 0.3) is None  # window before crash
        # Crash exactly at the window start is the reservation layer's
        # concern (start pushed past downtime), not a mid-flight death.
        assert h.crash_during(2, 0.5, 0.6) is None


class TestServiceFactor:
    def test_straggles_names_only_slowed_cards(self):
        h = health("slow:card=1,at=0.5,for=0.1,factor=2;crash:card=2,at=0.1")
        assert [h.straggles(c) for c in range(4)] == [False, True, False, False]

    def test_no_slowdown_is_unity(self):
        h = health("crash:card=0,at=1.0")
        assert h.service_factor(1, 0.0, 1.0) == 1.0

    def test_fully_inside_window(self):
        h = health("slow:card=1,at=0.0,for=10.0,factor=3")
        assert h.service_factor(1, 1.0, 2.0) == pytest.approx(3.0)

    def test_fully_outside_window(self):
        h = health("slow:card=1,at=5.0,for=1.0,factor=3")
        assert h.service_factor(1, 0.0, 1.0) == 1.0

    def test_partial_overlap_blends(self):
        # 1s nominal starting 0.5 before a factor-3 window that absorbs
        # the rest: 0.5 nominal + 0.5 * 3 stretched = 2.0 elapsed.
        h = health("slow:card=0,at=0.5,for=10.0,factor=3")
        assert h.service_factor(0, 0.0, 1.0) == pytest.approx(2.0)

    def test_window_exhausted_mid_service(self):
        # Factor-2 window [0, 1) absorbs 0.5 nominal in 1.0 elapsed;
        # remaining 0.5 nominal runs at speed → elapsed 1.5, factor 1.5.
        h = health("slow:card=0,at=0.0,for=1.0,factor=2")
        assert h.service_factor(0, 0.0, 1.0) == pytest.approx(1.5)

    def test_zero_service_is_unity(self):
        h = health("slow:card=0,at=0.0,for=1.0,factor=2")
        assert h.service_factor(0, 0.0, 0.0) == 1.0


class TestLink:
    def test_link_factor_window(self):
        h = health("link:at=0.1,for=0.1,factor=2.5")
        assert h.link_factor(0.05) == 1.0
        assert h.link_factor(0.15) == 2.5
        assert h.link_factor(0.25) == 1.0

    def test_overlapping_degradations_compound(self):
        h = health("link:at=0.1,for=0.1,factor=2;link:at=0.15,for=0.1,factor=3")
        assert h.link_factor(0.12) == 2.0
        assert h.link_factor(0.17) == 6.0
        assert h.link_factor(0.22) == 3.0


class TestEnvelope:
    def test_fault_envelope(self):
        h = health("crash:card=0,at=0.3,repair=0.1;slow:card=1,at=0.1,for=0.05,factor=2")
        assert h.first_fault_s() == 0.1
        assert h.last_fault_end_s() == pytest.approx(0.4)

    def test_empty_plan_envelope(self):
        h = ClusterHealth(FaultPlan(), 2)
        assert math.isinf(h.first_fault_s())
        assert h.last_fault_end_s() == 0.0


class TestRigTiming:
    """The timing rig reads the oracle: outages hold or kill dispatches."""

    def test_link_outage_blocks_dispatch(self):
        r = rig()
        r.inject(FaultPlan.from_spec("linkout:at=0.1,for=0.05"))
        r.dispatch(0.12, 0, 1, 1)
        assert r.last_host_window.start_s == pytest.approx(0.15)
        r.dispatch(0.2, 1, 1, 1)
        assert r.last_host_window.start_s == 0.2

    def test_dispatch_into_card_outage_fails(self):
        r = rig(1)
        r.inject(FaultPlan.from_spec("crash:card=0,at=1.0,repair=1.0"))
        dead = r.dispatch(1.2, 0, 1, 1)
        assert isinstance(dead, FailedWindow)
        assert dead.service_s == 0.0
        alive = r.dispatch(2.5, 0, 1, 1)
        assert not isinstance(alive, FailedWindow)
        assert alive.start_s > 2.5

    def test_crash_mid_window_burns_card_time(self):
        clean = rig(1).dispatch(0.0, 0, 4, 64)
        crash_s = (clean.start_s + clean.done_s) / 2
        r = rig(1)
        r.inject(FaultPlan.from_spec(f"crash:card=0,at={crash_s!r},repair=1.0"))
        cut = r.dispatch(0.0, 0, 4, 64)
        assert isinstance(cut, FailedWindow)
        assert cut.start_s == clean.start_s
        assert cut.done_s == crash_s
        assert cut.service_s == pytest.approx(crash_s - clean.start_s)
        assert r.cards[0].busy_until == crash_s
