"""Clock domains: cycle/second conversions used throughout the simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_non_negative_finite, check_positive_finite

__all__ = ["ClockDomain"]


@dataclass(frozen=True)
class ClockDomain:
    """A fixed-frequency clock domain.

    Parameters
    ----------
    frequency_hz:
        Clock frequency in Hz (e.g. ``300e6`` for the U280 kernel clock).
    name:
        Optional label for reports.
    """

    frequency_hz: float
    name: str = "kernel"

    def __post_init__(self) -> None:
        check_positive_finite(self.frequency_hz, "frequency_hz")

    @property
    def period_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1e9 / self.frequency_hz

    def seconds(self, cycles: float) -> float:
        """Convert a cycle count to seconds."""
        check_non_negative_finite(cycles, "cycles")
        return cycles / self.frequency_hz

    def cycles(self, seconds: float) -> float:
        """Convert seconds to (fractional) cycles."""
        check_non_negative_finite(seconds, "seconds")
        return seconds * self.frequency_hz

    def rate_per_second(self, items: float, cycles: float) -> float:
        """Throughput in items/second for ``items`` completed in ``cycles``."""
        check_positive_finite(cycles, "cycles")
        return items * self.frequency_hz / cycles
