"""Every scalar field of the public config types refuses a bad value by name.

Each field gets NaN, +inf, -inf and -1, and an integer field also gets
``True``.  A case either constructs (the few values listed in
:data:`ACCEPTED` have a meaning) or raises a
:class:`~repro.errors.ValidationError` whose message names the field.
"""

from __future__ import annotations

import pytest

from repro.cluster import BatchQueue, HostLinkModel
from repro.errors import ValidationError
from repro.faults import (
    CardCrash,
    CardSlowdown,
    HedgePolicy,
    LinkDegradation,
    LinkOutage,
    RetryPolicy,
)
from repro.gateway import TenantProfile
from repro.risk import Regime

NAN, INF = float("nan"), float("inf")

#: Each config type: a valid construction, and its integer and float
#: scalar fields.
CONFIGS = {
    RetryPolicy: (
        dict(),
        ("max_attempts",),
        ("base_s", "multiplier", "cap_s"),
    ),
    HedgePolicy: (dict(), ("max_hedges_per_batch",), ("threshold",)),
    TenantProfile: (
        dict(name="t", quota_rps=1000.0, burst=10.0),
        ("priority_boost",),
        ("quota_rps", "burst", "deadline_scale", "share"),
    ),
    BatchQueue: (dict(), ("max_batch",), ("linger_s",)),
    Regime: (
        dict(name="calm", weight=1.0),
        (),
        ("weight", "hazard_scale", "rate_scale", "hazard_drift_bps"),
    ),
    CardCrash: (dict(card=0, at_s=0.0, repair_s=0.1), ("card",), ("at_s", "repair_s")),
    CardSlowdown: (
        dict(card=0, at_s=0.0, duration_s=0.1, factor=2.0),
        ("card",),
        ("at_s", "duration_s", "factor"),
    ),
    LinkDegradation: (
        dict(at_s=0.0, duration_s=0.1, factor=2.0),
        (),
        ("at_s", "duration_s", "factor"),
    ),
    LinkOutage: (dict(at_s=0.0, duration_s=0.1), (), ("at_s", "duration_s")),
    HostLinkModel: (dict(), (), ("host_contention", "dispatch_latency_s")),
}

#: ``(type, field, value)`` cases that construct: a regime may drift
#: hazards down as well as up.
ACCEPTED = {(Regime, "hazard_drift_bps", -1)}


def _cases():
    out = []
    for cls, (valid, ints, floats) in CONFIGS.items():
        for field in ints:
            out += [(cls, valid, field, v) for v in (NAN, INF, -INF, -1, True)]
        for field in floats:
            out += [(cls, valid, field, v) for v in (NAN, INF, -INF, -1)]
    return out


CASES = _cases()


@pytest.mark.parametrize("cls", CONFIGS)
def test_valid_construction(cls):
    valid, _, _ = CONFIGS[cls]
    cls(**valid)


@pytest.mark.parametrize(
    "cls,valid,field,value",
    CASES,
    ids=[f"{c.__name__}.{f}={v!r}" for c, _, f, v in CASES],
)
def test_bad_scalar_is_refused_by_name(cls, valid, field, value):
    kwargs = dict(valid, **{field: value})
    if (cls, field, value) in ACCEPTED:
        cls(**kwargs)
        return
    with pytest.raises(ValidationError) as err:
        cls(**kwargs)
    assert field in str(err.value)
