"""Unit tests for the serving request/response types."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.serving.request import PricingRequest, ShedRecord


def quote(rid=0, arrival=0.0, deadline=1.0, **kw) -> PricingRequest:
    kw.setdefault("rows", (0,))
    kw.setdefault("option_index", 0)
    return PricingRequest(
        request_id=rid, kind="quote", arrival_s=arrival, deadline_s=deadline, **kw
    )


class TestPricingRequest:
    def test_quote_shape(self):
        q = quote(rows=(3,), option_index=5, deadline=0.5)
        assert q.n_rows == 1
        assert q.n_cells(100) == 1

    def test_reval_cells_scale_with_book(self):
        r = PricingRequest(1, "reval", 0.0, 1.0, rows=(2,))
        assert r.n_cells(64) == 64

    def test_var_cells_scale_with_rows_and_book(self):
        v = PricingRequest(2, "var", 0.0, 1.0, rows=(0, 1, 2, 3))
        assert v.n_rows == 4
        assert v.n_cells(10) == 40

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown request kind"):
            PricingRequest(0, "gamma", 0.0, 1.0, rows=(0,))

    def test_deadline_must_exceed_arrival(self):
        with pytest.raises(ValidationError, match="deadline"):
            quote(arrival=1.0, deadline=1.0)

    def test_rows_non_empty(self):
        with pytest.raises(ValidationError, match="rows"):
            PricingRequest(0, "var", 0.0, 1.0, rows=())

    def test_single_state_kinds_reject_multi_row(self):
        with pytest.raises(ValidationError, match="exactly one market state"):
            PricingRequest(0, "reval", 0.0, 1.0, rows=(0, 1))

    def test_quote_needs_option_index(self):
        with pytest.raises(ValidationError, match="option_index"):
            PricingRequest(0, "quote", 0.0, 1.0, rows=(0,))

    def test_option_index_rejected_off_quote(self):
        with pytest.raises(ValidationError, match="only applies to quote"):
            PricingRequest(0, "reval", 0.0, 1.0, rows=(0,), option_index=1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rows", (1.0,), "rows must be integer indices, got (1.0,)"),
            ("rows", (True,), "rows must be integer indices, got (True,)"),
            ("option_index", 1.5, "option_index must be an integer, got 1.5"),
            ("option_index", True, "option_index must be an integer, got True"),
        ],
    )
    def test_non_integer_indices_rejected(self, field, value, message):
        """A bool or a float used to construct, then fail mid-replay."""
        with pytest.raises(ValidationError) as err:
            quote(**{field: value})
        assert str(err.value) == message

    def test_numpy_integers_accepted(self):
        q = quote(rows=(np.int64(3),), option_index=np.int32(2))
        assert q.rows == (3,) and q.option_index == 2

    def test_list_rows_stored_as_a_tuple(self):
        """A request built from a list equals, and hashes like, the one
        built from the tuple."""
        listed = PricingRequest(0, "var", 0.0, 1.0, rows=[1, 4])
        tupled = PricingRequest(0, "var", 0.0, 1.0, rows=(1, 4))
        assert listed.rows == (1, 4)
        assert listed == tupled and hash(listed) == hash(tupled)


    @pytest.mark.parametrize(
        "make_rows",
        [
            lambda: iter([4, 5]),
            lambda: (r for r in (4, 5)),
            lambda: np.array([4, 5]),
            lambda: np.array([4, 5], dtype=np.int32),
        ],
        ids=["iterator", "generator", "array", "int32-array"],
    )
    def test_rows_of_any_iterable_are_its_tuple(self, make_rows):
        """An iterator's rows were consumed by the check and an empty
        tuple stored; a multi-row array raised NumPy's truth-value
        error.  Both build what the same rows as a list build."""
        built = PricingRequest(0, "var", 0.0, 1.0, make_rows())
        listed = PricingRequest(0, "var", 0.0, 1.0, [4, 5])
        assert built.rows == (4, 5)
        assert built == listed and hash(built) == hash(listed)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (iter([]), "rows must be a non-empty tuple of non-negative indices"),
            (iter([1.5]), "rows must be integer indices, got (1.5,)"),
            (np.array([-1, 2]), "rows must be a non-empty tuple of non-negative"),
            (np.array([0.5, 2.0]), "rows must be integer indices, got"),
        ],
        ids=["empty-iterator", "float-iterator", "negative-array", "float-array"],
    )
    def test_rows_of_any_iterable_are_checked_as_its_tuple(self, rows, message):
        with pytest.raises(ValidationError) as err:
            PricingRequest(0, "var", 0.0, 1.0, rows)
        assert str(err.value).startswith(message)

    def test_one_element_array_holding_zero(self):
        """Its truth value is false, so it was refused as empty."""
        q = quote(rows=np.array([0]))
        assert q.rows == (0,) and q == quote(rows=(0,))


class TestShedRecord:
    def test_reasons(self):
        q = quote()
        assert ShedRecord(q, 0.5, "queue_full").reason == "queue_full"
        with pytest.raises(ValidationError, match="unknown shed reason"):
            ShedRecord(q, 0.5, "mood")
