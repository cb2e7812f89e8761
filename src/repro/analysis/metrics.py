"""Shared metric arithmetic."""

from __future__ import annotations

from repro.core.validation import check_non_negative_finite, check_positive_finite
from repro.errors import ValidationError

__all__ = ["speedup", "options_per_watt", "relative_error", "geometric_mean"]


def speedup(fast: float, slow: float) -> float:
    """``fast / slow`` with validation (both rates must be positive)."""
    check_positive_finite(fast, "fast")
    check_positive_finite(slow, "slow")
    return fast / slow


def options_per_watt(options_per_second: float, watts: float) -> float:
    """Power efficiency (Table II's final column)."""
    check_positive_finite(watts, "watts")
    check_non_negative_finite(options_per_second, "options_per_second")
    return options_per_second / watts


def relative_error(measured: float, reference: float) -> float:
    """``|measured - reference| / |reference|``."""
    if reference == 0:
        raise ValidationError("reference must be non-zero")
    return abs(measured - reference) / abs(reference)


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of positive values (ratio aggregation)."""
    if not values:
        raise ValidationError("values must be non-empty")
    if not all(v > 0 for v in values):
        raise ValidationError("values must all be > 0")
    import math

    return math.exp(sum(math.log(v) for v in values) / len(values))
