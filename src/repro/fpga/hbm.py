"""HBM2 external-memory access model.

The engines keep their input/output buffers in the U280's HBM2 and follow
the Vitis best practice the paper cites: "external data accesses are packed
into widths of 512 bits" (Section III, citing the Vitis performance guide).
A 512-bit access moves eight doubles per beat, so a well-formed burst of
``n`` doubles costs roughly ``ceil(n / 8)`` cycles plus a fixed channel
latency, derated by a bus efficiency factor.

The model also exposes the aggregate bandwidth ceiling used by the
multi-engine contention analysis: engines share the HBM subsystem, and at
five engines the shared-interface pressure is one source of the observed
sub-linear scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.core.validation import (
    check_count,
    check_index,
    check_non_negative_finite,
    check_range,
)
from repro.errors import ValidationError

__all__ = ["HBMModel"]

#: Bytes moved per beat with 512-bit packing.
BYTES_PER_BEAT_512 = 64


@dataclass(frozen=True)
class HBMModel:
    """Timing model of an HBM2 pseudo-channel group.

    Parameters
    ----------
    access_latency_cycles:
        Fixed cycles from request to first beat (channel + AXI latency).
    bus_efficiency:
        Fraction of peak beats actually sustained (refresh, bank conflicts).
    width_bits:
        Access width; the engines use 512 per the cited best practice.
    channels:
        Pseudo-channels available to the design (U280 exposes 32).
    peak_bytes_per_sec_per_channel:
        Peak per-channel bandwidth (HBM2 on the U280: ~14.4 GB/s/PC, 460
        GB/s aggregate).
    """

    access_latency_cycles: float = 120.0
    bus_efficiency: float = 0.85
    width_bits: int = 512
    channels: int = 32
    peak_bytes_per_sec_per_channel: float = 14.4e9

    def __post_init__(self) -> None:
        check_non_negative_finite(self.access_latency_cycles, "access_latency_cycles")
        check_range(self.bus_efficiency, "bus_efficiency", "(0, 1]")
        check_count(self.width_bits, "width_bits")
        if self.width_bits % 8 != 0:
            raise ValidationError(f"width_bits must be a positive multiple of 8")
        check_count(self.channels, "channels")

    @property
    def bytes_per_beat(self) -> int:
        """Bytes transferred per clock beat at the configured width."""
        return self.width_bits // 8

    def burst_cycles(self, n_bytes: int) -> float:
        """Cycles to stream ``n_bytes`` as one contiguous burst."""
        check_index(n_bytes, "n_bytes")
        if n_bytes == 0:
            return 0.0
        beats = ceil(n_bytes / self.bytes_per_beat)
        return self.access_latency_cycles + beats / self.bus_efficiency

    def doubles_burst_cycles(self, n_doubles: int) -> float:
        """Cycles to stream ``n_doubles`` 8-byte values (packed)."""
        return self.burst_cycles(n_doubles * 8)

    def unpacked_burst_cycles(self, n_doubles: int) -> float:
        """Cycles when *not* packed: one beat per double.

        This is the anti-pattern the best-practice note exists to avoid;
        the ablation benchmark contrasts it with the packed layout.
        """
        check_index(n_doubles, "n_doubles")
        if n_doubles == 0:
            return 0.0
        return self.access_latency_cycles + n_doubles / self.bus_efficiency

    def aggregate_bandwidth_bytes_per_sec(self) -> float:
        """Card-level HBM bandwidth ceiling shared by all engines."""
        return self.channels * self.peak_bytes_per_sec_per_channel * self.bus_efficiency
