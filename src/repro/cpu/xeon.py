"""CPU machine descriptors."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_count, check_positive_finite

__all__ = ["CPUDescriptor", "XEON_8260M"]


@dataclass(frozen=True)
class CPUDescriptor:
    """Static description of a CPU socket.

    Parameters
    ----------
    name:
        Marketing name.
    cores:
        Physical core count.
    base_clock_hz:
        Base (all-core sustained) clock; the scaling model uses this rather
        than single-core turbo because the paper's comparison point is the
        fully-loaded socket.
    l3_bytes:
        Shared last-level cache size.
    memory_bandwidth_bytes_per_sec:
        Socket DRAM bandwidth (six DDR4-2933 channels for Cascade Lake).
    """

    name: str
    cores: int
    base_clock_hz: float
    l3_bytes: int
    memory_bandwidth_bytes_per_sec: float

    def __post_init__(self) -> None:
        check_count(self.cores, "cores")
        check_positive_finite(self.base_clock_hz, "base_clock_hz")


#: The paper's comparison CPU: 24-core Cascade Lake Xeon Platinum 8260M.
XEON_8260M = CPUDescriptor(
    name="Intel Xeon Platinum 8260M (Cascade Lake)",
    cores=24,
    base_clock_hz=2.4e9,
    l3_bytes=36_608 * 1024,
    memory_bandwidth_bytes_per_sec=141e9,
)
