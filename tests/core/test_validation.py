"""Unit tests for validation helpers."""

import numpy as np
import pytest

from repro.core.validation import (
    as_float_array,
    check_count,
    check_finite,
    check_index,
    check_non_negative_finite,
    check_positive,
    check_positive_finite,
    check_range,
    check_strictly_increasing,
)
from repro.errors import CurveError, ValidationError


class TestAsFloatArray:
    def test_list_conversion(self):
        arr = as_float_array([1, 2, 3], "x")
        assert arr.dtype == np.float64
        assert arr.tolist() == [1.0, 2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            as_float_array([], "x")

    def test_2d_rejected(self):
        with pytest.raises(ValidationError):
            as_float_array([[1.0], [2.0]], "x")


class TestCheckFinite:
    def test_ok(self):
        check_finite(np.array([1.0, 2.0]), "x")

    def test_nan_reported_with_index(self):
        with pytest.raises(CurveError, match="index 1"):
            check_finite(np.array([1.0, np.nan]), "x")

    def test_inf_rejected(self):
        with pytest.raises(CurveError):
            check_finite(np.array([np.inf]), "x")


class TestCheckStrictlyIncreasing:
    def test_ok(self):
        check_strictly_increasing(np.array([1.0, 2.0, 3.0]), "x")

    def test_single_element_ok(self):
        check_strictly_increasing(np.array([5.0]), "x")

    def test_equal_rejected(self):
        with pytest.raises(CurveError, match="indices 0 and 1"):
            check_strictly_increasing(np.array([1.0, 1.0]), "x")

    def test_decreasing_rejected(self):
        with pytest.raises(CurveError):
            check_strictly_increasing(np.array([2.0, 1.0]), "x")


class TestCheckPositive:
    def test_strict_ok(self):
        check_positive(np.array([0.1, 1.0]), "x")

    def test_strict_zero_rejected(self):
        with pytest.raises(CurveError):
            check_positive(np.array([0.0]), "x")

    def test_nonstrict_zero_ok(self):
        check_positive(np.array([0.0, 1.0]), "x", strict=False)

    def test_negative_always_rejected(self):
        with pytest.raises(CurveError):
            check_positive(np.array([-0.1]), "x", strict=False)


class TestCheckProbability:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_ok(self, p):
        check_range(p, "p")

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_out_of_range(self, p):
        with pytest.raises(ValidationError):
            check_range(p, "p")


NAN, INF = float("nan"), float("inf")


class TestCheckCount:
    @pytest.mark.parametrize("n", [1, 7, np.int64(3), np.intp(1)])
    def test_ok(self, n):
        check_count(n, "n")

    @pytest.mark.parametrize(
        "n", [0, -1, 2.5, 3.0, NAN, INF, -INF, True, False, np.float64(3.0)]
    )
    def test_refused_with_the_message_shape(self, n):
        with pytest.raises(ValidationError) as err:
            check_count(n, "n_cards")
        assert str(err.value) == f"n_cards must be an integer >= 1, got {n!r}"

    def test_minimum(self):
        check_count(2, "n_points", 2)
        with pytest.raises(
            ValidationError, match=r"^n_points must be an integer >= 2, got 1$"
        ):
            check_count(1, "n_points", 2)


class TestCheckIndex:
    @pytest.mark.parametrize("i", [0, 5, np.int32(0)])
    def test_ok(self, i):
        check_index(i, "card")

    @pytest.mark.parametrize("i", [-1, 0.0, NAN, INF, True])
    def test_refused_with_the_message_shape(self, i):
        with pytest.raises(ValidationError) as err:
            check_index(i, "card")
        assert str(err.value) == f"card must be an integer >= 0, got {i!r}"


class TestCheckPositiveFinite:
    @pytest.mark.parametrize("x", [1e-300, 2.5, 7, np.float32(0.5)])
    def test_ok(self, x):
        check_positive_finite(x, "rate_hz")

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, NAN, INF, -INF])
    def test_refused_with_the_message_shape(self, x):
        with pytest.raises(ValidationError) as err:
            check_positive_finite(x, "rate_hz")
        assert str(err.value) == f"rate_hz must be finite and > 0, got {x!r}"


class TestCheckNonNegativeFinite:
    @pytest.mark.parametrize("x", [0.0, -0.0, 0, 3.5])
    def test_ok(self, x):
        check_non_negative_finite(x, "linger_s")

    @pytest.mark.parametrize("x", [-1e-12, -1, NAN, INF, -INF])
    def test_refused_with_the_message_shape(self, x):
        with pytest.raises(ValidationError) as err:
            check_non_negative_finite(x, "linger_s")
        assert str(err.value) == f"linger_s must be finite and >= 0, got {x!r}"


class TestCheckRange:
    @pytest.mark.parametrize("x", [NAN, INF, -INF])
    def test_non_finite_refused(self, x):
        with pytest.raises(ValidationError, match=r"^p must be in \[0, 1\], got"):
            check_range(x, "p")

    def test_open_bounds(self):
        check_range(0.5, "q", "(0, 1)")
        for x in (0.0, 1.0):
            with pytest.raises(
                ValidationError, match=rf"^q must be in \(0, 1\), got {x!r}$"
            ):
                check_range(x, "q", "(0, 1)")

    def test_bounds_render_compactly(self):
        with pytest.raises(
            ValidationError, match=r"^factor must be in \(1, inf\), got 1.0$"
        ):
            check_range(1.0, "factor", "(1, inf)")
        with pytest.raises(
            ValidationError, match=r"^correlation must be in \(-1, 1\), got -1$"
        ):
            check_range(-1, "correlation", "(-1, 1)")
