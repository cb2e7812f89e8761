"""The contract of the records a replay builds per request.

:class:`PricingRequest`, :class:`PricingResponse`, :class:`ShedRecord`,
:class:`FailRecord`, :class:`Reservation` and :class:`MicroBatch` are
slotted frozen dataclasses with a hand-written ``__init__`` that stores
each field through its slot; :class:`FailedWindow` is a
:class:`Reservation` that inherits both.  Only construction is written
out: equality, hashing, ``repr``, ``dataclasses.replace``, copying,
pickling and the frozen guard must behave as on a plain frozen
dataclass with the same fields, declared here as each record's twin.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import sys
from dataclasses import MISSING, FrozenInstanceError, fields, make_dataclass

import pytest

from repro.api.cost import FailedWindow
from repro.serving.coalescer import MicroBatch
from repro.serving.request import (
    FailRecord,
    PricingRequest,
    PricingResponse,
    ShedReason,
    ShedRecord,
)
from repro.sim.resources import Reservation

QUOTE = PricingRequest(3, "quote", 0.5, 0.75, (2,), 1, 2, "desk")
VAR = PricingRequest(4, "var", 0.25, 1.0, (5, 1), None, 0, None)


def twin(name: str, *specs):
    """A frozen, non-slotted dataclass named like the record, with the
    record's fields (``(name, type, default)`` for a defaulted one)."""
    return make_dataclass(name, specs, frozen=True)


_WINDOW = ("resource", "ready_s", "start_s", "done_s", "service_s")

#: Each record, its twin, and two argument tuples that differ in every
#: field the record compares.
CASES = {
    PricingRequest: (
        twin(
            "PricingRequest", "request_id", "kind", "arrival_s", "deadline_s",
            "rows", ("option_index", object, None), ("priority", object, 0),
            ("tenant", object, None),
        ),
        (3, "quote", 0.5, 0.75, (2,), 1, 2, "desk"),
        (4, "var", 0.25, 1.0, (5, 1), None, 0, None),
    ),
    PricingResponse: (
        twin(
            "PricingResponse", "request_id", "kind", "value", "arrival_s",
            "formed_s", "completion_s", "latency_s", "met_deadline",
            "batch_id", "cards", ("tenant", object, None),
        ),
        (3, "quote", 12.5, 0.5, 0.6, 0.7, 0.2, True, 7, (0, 1), "desk"),
        (4, "var", -3.0, 0.25, 0.3, 1.5, 1.25, False, 8, (2,), None),
    ),
    ShedRecord: (
        twin("ShedRecord", "request", "time_s", "reason"),
        (QUOTE, 0.6, ShedReason.DEADLINE),
        (VAR, 0.9, ShedReason.QUOTA),
    ),
    FailRecord: (
        twin(
            "FailRecord", "request", "time_s", "attempts",
            ("reason", object, ShedReason.CARD_FAILURE),
        ),
        (QUOTE, 0.6, 2, ShedReason.CARD_FAILURE),
        (VAR, 0.9, 3, ShedReason.BREAKER_OPEN),
    ),
    Reservation: (
        twin("Reservation", *_WINDOW),
        ("card0", 0.5, 0.75, 1.0, 0.25),
        ("host", 1.0, 1.5, 1.5, 0.0),
    ),
    FailedWindow: (
        twin("FailedWindow", *_WINDOW),
        ("card0", 0.5, 0.75, 1.0, 0.25),
        ("host", 1.0, 1.5, 1.5, 0.0),
    ),
    MicroBatch: (
        # ``rows`` is derived: neither an argument nor compared nor shown.
        twin("MicroBatch", "batch_id", "formed_s", "requests"),
        (0, 0.5, (QUOTE,)),
        (1, 0.9, (VAR, QUOTE)),
    ),
}

RECORDS = list(CASES)


def _ids(cls) -> str:
    return cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_slotted_without_a_dict(cls):
    _, a, _ = CASES[cls]
    assert "__slots__" in vars(cls)
    assert not hasattr(cls(*a), "__dict__")


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_init_is_written_in_the_module(cls):
    """Not generated by ``dataclasses`` (whose code has no file): the
    records' own modules, :class:`Reservation`'s for its subclass."""
    owner = Reservation if cls is FailedWindow else cls
    assert "__init__" in vars(owner)
    assert cls.__init__ is owner.__init__
    home = sys.modules[owner.__module__].__file__
    assert cls.__init__.__code__.co_filename == home


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_signature_lists_the_init_fields(cls):
    def spec(f):
        default = inspect.Parameter.empty if f.default is MISSING else f.default
        return f.name, default, inspect.Parameter.POSITIONAL_OR_KEYWORD

    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default, p.kind) for p in params] == [
        spec(f) for f in fields(cls) if f.init
    ]


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_frozen(cls):
    _, a, _ = CASES[cls]
    record = cls(*a)
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_eq_hash_and_repr_are_the_twins(cls):
    twin_cls, a, b = CASES[cls]
    x, y = cls(*a), cls(*b)
    tx, ty = twin_cls(*a), twin_cls(*b)
    assert repr(x) == repr(tx) and repr(y) == repr(ty)
    assert hash(x) == hash(tx) and hash(y) == hash(ty)
    assert (x == cls(*a)) is (tx == twin_cls(*a)) is True
    assert (x == y) is (tx == ty) is False
    assert (x != y) is (tx != ty) is True


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_replace_copy_and_pickle_round_trip(cls):
    _, a, b = CASES[cls]
    x, y = cls(*a), cls(*b)
    names = [f.name for f in fields(cls) if f.init]
    assert dataclasses.replace(x) == x
    assert dataclasses.replace(x, **dict(zip(names, b))) == y
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is cls and clone == x
        assert [getattr(clone, f.name) for f in fields(cls)] == [
            getattr(x, f.name) for f in fields(cls)
        ]


def test_a_failed_window_is_a_reservation_but_never_equal_to_one():
    _, a, _ = CASES[Reservation]
    window, reservation = FailedWindow(*a), Reservation(*a)
    assert isinstance(window, Reservation)
    assert window != reservation and reservation != window
    assert window.waited_s == reservation.waited_s


@pytest.mark.parametrize(
    "requests, rows",
    [((QUOTE,), (2,)), ((VAR,), (1, 5)), ((VAR, QUOTE), (1, 2, 5))],
)
def test_micro_batch_rows(requests, rows):
    """Sorted distinct rows across the members, for one one-row member
    too."""
    assert MicroBatch(0, 0.5, requests).rows == rows
