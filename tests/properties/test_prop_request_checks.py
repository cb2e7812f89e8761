"""Property test pinning :class:`PricingRequest`'s argument checks.

The request's ``__init__`` admits the shapes the stream generators emit
through one chained test and runs every check in turn on anything else.
Its verdicts must stay those of the class it replaced, kept here as the
oracle: a frozen dataclass whose generated ``__init__`` ran the checks
in ``__post_init__``.  Over generated kinds, times, rows and option
indices, both build records with equal fields, or both raise
:class:`~repro.errors.ValidationError` with the same message.

The oracle is given ``tuple(rows)``: the request takes its rows as a
tuple before any check, so an iterator's rows are no longer consumed by
the check and a one-element array holding 0 is no longer refused as
empty (``tests/serving/test_request.py`` pins those two inputs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.validation import is_index
from repro.errors import ValidationError
from repro.serving.request import REQUEST_KINDS, PricingRequest


@dataclass(frozen=True)
class OracleRequest:
    """``PricingRequest`` before its ``__init__`` was written out."""

    request_id: int
    kind: str
    arrival_s: float
    deadline_s: float
    rows: tuple[int, ...]
    option_index: int | None = None
    priority: int = 0
    tenant: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValidationError(
                f"unknown request kind {self.kind!r}; "
                f"choose from {sorted(REQUEST_KINDS)}"
            )
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise ValidationError(
                f"arrival_s must be finite and >= 0, got {self.arrival_s}"
            )
        if not math.isfinite(self.deadline_s) or self.deadline_s <= self.arrival_s:
            raise ValidationError(
                f"deadline_s must exceed arrival_s, got {self.deadline_s} "
                f"vs arrival {self.arrival_s}"
            )
        rows = self.rows
        if not rows or not all(type(r) is int and r >= 0 for r in rows):
            if not all(map(is_index, rows)):
                raise ValidationError(
                    f"rows must be integer indices, got {rows!r}"
                )
            if not rows or any(not r >= 0 for r in rows):
                raise ValidationError(
                    "rows must be a non-empty tuple of non-negative indices"
                )
        if type(rows) is not tuple:
            object.__setattr__(self, "rows", tuple(rows))
        if self.kind in ("quote", "reval") and len(self.rows) != 1:
            raise ValidationError(
                f"a {self.kind} request prices exactly one market state, "
                f"got {len(self.rows)} rows"
            )
        if self.kind == "quote":
            index = self.option_index
            if type(index) is not int and index is not None:
                if not is_index(index):
                    raise ValidationError(
                        f"option_index must be an integer, got {index!r}"
                    )
            if index is None or not index >= 0:
                raise ValidationError(
                    "a quote request needs a non-negative option_index"
                )
        elif self.option_index is not None:
            raise ValidationError(
                f"option_index only applies to quote requests, not {self.kind!r}"
            )


#: Kinds, unknown ones included.
kinds = st.sampled_from((*REQUEST_KINDS, "gamma", "", "Quote"))

#: Times: NaN, both infinities, negatives, zero and ordinary values.
times = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-3, 1.0, -1.0)),
    st.sampled_from((math.nan, math.inf, -math.inf)),
    st.floats(min_value=-1.0, max_value=2.0),
    st.floats(),
)

#: Integer-like values: plain and NumPy ints, bools, floats, negatives.
indices = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.integers(min_value=-3, max_value=40).map(np.int64),
    st.integers(min_value=0, max_value=40).map(np.int32),
    st.booleans(),
    st.floats(min_value=-2.0, max_value=40.0),
    st.sampled_from((math.nan, 2.0)),
)

#: Rows: tuples and lists (empty, one and several), one-element arrays.
row_sets = st.one_of(
    st.integers(min_value=-3, max_value=40).map(lambda r: (r,)),
    st.lists(indices, max_size=4).map(tuple),
    st.lists(indices, max_size=4),
    st.integers(min_value=-3, max_value=40).map(lambda r: np.array([r])),
)


def _build(cls, **kwargs):
    """``(fields, None)`` for a built record, ``(None, message)`` for a
    refused one."""
    try:
        record = cls(**kwargs)
    except ValidationError as err:
        return None, str(err)
    values = tuple(getattr(record, f.name) for f in fields(record))
    return values, None


@st.composite
def requests(draw):
    """A valid request of a drawn kind, with up to three of its
    arguments then replaced by arbitrary values, so that each check is
    reached on its own as well as in combination."""
    kind = draw(st.sampled_from(REQUEST_KINDS))
    arrival = draw(st.floats(min_value=0.0, max_value=1.0))
    n_rows = 1 if kind != "var" else draw(st.integers(1, 4))
    case = dict(
        request_id=draw(st.integers(min_value=0, max_value=10)),
        kind=kind,
        arrival_s=arrival,
        deadline_s=arrival + draw(st.floats(min_value=1e-6, max_value=1.0)),
        rows=tuple(draw(st.lists(st.integers(0, 40), min_size=n_rows,
                                 max_size=n_rows))),
        option_index=draw(st.integers(0, 40)) if kind == "quote" else None,
        priority=draw(st.integers(min_value=-2, max_value=5)),
        tenant=draw(st.sampled_from((None, "desk"))),
    )
    arbitrary = dict(
        kind=kinds,
        arrival_s=times,
        deadline_s=st.one_of(times, st.just(arrival)),
        rows=row_sets,
        option_index=st.one_of(st.none(), indices),
    )
    for name in draw(st.sets(st.sampled_from(sorted(arbitrary)), max_size=3)):
        case[name] = draw(arbitrary[name])
    return case


QUOTE = dict(
    request_id=0, kind="quote", arrival_s=0.0, deadline_s=1.0, rows=(0,),
    option_index=0, priority=0, tenant=None,
)
REVAL = dict(kind="reval", option_index=None)


def _case(**kwargs):
    """A valid quote with ``kwargs`` replaced."""
    return {**QUOTE, **kwargs}


@given(case=requests())
# Each conjunct of the chained test, just inside and just outside.
@example(case=_case())
@example(case=_case(**REVAL))
@example(case=_case(kind="var", option_index=None))
@example(case=_case(kind="gamma"))
@example(case=_case(kind="gamma", option_index=None))
@example(case=_case(arrival_s=-1e-300))
@example(case=_case(arrival_s=math.nan))
@example(case=_case(deadline_s=math.inf))
@example(case=_case(arrival_s=1.0, deadline_s=1.0))
@example(case=_case(rows=(-1,)))
@example(case=_case(**REVAL, rows=(-1,)))
@example(case=_case(rows=(0, 1)))
@example(case=_case(rows=[3]))
@example(case=_case(rows=np.array([0])))
@example(case=_case(rows=(np.int64(2),), option_index=np.int64(1)))
@example(case=_case(rows=(True,)))
@example(case=_case(option_index=-1))
@example(case=_case(option_index=True))
@example(case=_case(option_index=None))
@example(case=_case(kind="reval", option_index=0))
@example(case=_case(kind="var", option_index=None, rows=[4, 1, 4]))
@settings(max_examples=300, deadline=None)
def test_request_checks_match_the_oracle(case):
    new, new_error = _build(PricingRequest, **case)
    as_tuple = {**case, "rows": tuple(case["rows"])}
    old, old_error = _build(OracleRequest, **as_tuple)
    assert new_error == old_error
    assert new == old
    # The same values of the same types: ``==`` alone equates 3 and 3.0.
    assert repr(new) == repr(old)
