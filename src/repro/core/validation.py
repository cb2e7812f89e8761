"""Validation helpers shared by curves, schedules and pricers."""

from __future__ import annotations

import numbers
from collections.abc import Sequence

import numpy as np

from repro.errors import CurveError, ValidationError

__all__ = [
    "as_float_array",
    "check_strictly_increasing",
    "check_finite",
    "check_positive",
    "check_probability",
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


def check_probability(value: float, name: str) -> None:
    """Raise :class:`ValidationError` unless ``value`` lies in ``[0, 1]``."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")


def is_index(value) -> bool:
    """A plain or NumPy integer; a bool is a flag, not an index."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
