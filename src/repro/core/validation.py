"""Validation helpers shared by curves, schedules and pricers.

The scalar checks (:func:`check_count`, :func:`check_index`,
:func:`check_positive_finite`, :func:`check_non_negative_finite`,
:func:`check_range` and, for a ``(lo, hi)`` pair, :func:`check_bounds`)
are the one place that decides what a valid count, duration or fraction
is.  Each is written so that NaN fails (``not x > 0``), refuses a bool
where an integer is meant, and raises ``ValidationError("<field> must
be <rule>, got <value!r>")``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence

import numpy as np

from repro.errors import CurveError, ValidationError

__all__ = [
    "as_float_array",
    "check_bounds",
    "check_strictly_increasing",
    "check_finite",
    "check_count",
    "check_index",
    "check_non_negative_finite",
    "check_positive",
    "check_positive_finite",
    "check_range",
    "is_index",
]


def as_float_array(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """Convert ``values`` to a 1-D float64 array, validating shape.

    Raises
    ------
    ValidationError
        If the input is empty or not one-dimensional.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    return arr


def check_finite(arr: np.ndarray, name: str) -> None:
    """Raise :class:`CurveError` if ``arr`` contains NaN or infinity."""
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise CurveError(f"{name} contains a non-finite value at index {bad}")


def check_strictly_increasing(arr: np.ndarray, name: str) -> None:
    """Raise :class:`CurveError` unless ``arr`` is strictly increasing."""
    if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
        bad = int(np.flatnonzero(np.diff(arr) <= 0.0)[0])
        raise CurveError(
            f"{name} must be strictly increasing; violation between "
            f"indices {bad} and {bad + 1} ({arr[bad]!r} -> {arr[bad + 1]!r})"
        )


def check_positive(arr: np.ndarray, name: str, *, strict: bool = True) -> None:
    """Raise :class:`CurveError` unless all elements are positive.

    With ``strict=False`` zero values are allowed.
    """
    limit_ok = np.all(arr > 0.0) if strict else np.all(arr >= 0.0)
    if not limit_ok:
        cmp = arr <= 0.0 if strict else arr < 0.0
        bad = int(np.flatnonzero(cmp)[0])
        op = ">" if strict else ">="
        raise CurveError(f"{name} must be {op} 0; value {arr[bad]!r} at index {bad}")


def is_index(value) -> bool:
    """A plain or NumPy integer; a bool is a flag, not an index."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(value, name: str, minimum: int = 1) -> None:
    """Raise :class:`ValidationError` unless ``value`` is an integer
    ``>= minimum`` (by the :func:`is_index` rule)."""
    if not (is_index(value) and value >= minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_index(value, name: str) -> None:
    """Raise :class:`ValidationError` unless ``value`` is an integer ``>= 0``."""
    if not (is_index(value) and value >= 0):
        raise ValidationError(f"{name} must be an integer >= 0, got {value!r}")


def check_positive_finite(value, name: str) -> None:
    """Raise :class:`ValidationError` unless ``0 < value < inf``."""
    if not 0 < value < math.inf:
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")


def check_non_negative_finite(value, name: str) -> None:
    """Raise :class:`ValidationError` unless ``0 <= value < inf``."""
    if not 0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


def check_bounds(bounds, name: str) -> None:
    """Raise :class:`ValidationError` unless ``bounds`` is a ``(lo, hi)``
    pair with ``0 < lo <= hi < inf``."""
    lo, hi = bounds
    if not 0 < lo <= hi < math.inf:
        raise ValidationError(f"{name} must satisfy 0 < lo <= hi < inf, got {bounds!r}")


def check_range(value, name: str, interval: str = "[0, 1]") -> None:
    """Raise :class:`ValidationError` unless ``value`` lies in ``interval``,
    written as the message reads it: ``"(0, 1]"`` excludes 0, and
    ``"(1, inf)"`` is any finite value above 1."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    if not (above and (value < hi if interval[-1] == ")" else value <= hi)):
        raise ValidationError(f"{name} must be in {interval}, got {value!r}")
