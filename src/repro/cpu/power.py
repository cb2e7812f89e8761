"""CPU socket power model.

The paper measured 175.39 W for the fully-loaded 24-core Xeon (Table II).
The standard affine socket model — package idle power plus a per-active-core
increment — is fitted so that 24 active cores draw that figure:

``P(k) = 60.2 + 4.8 * k``  ->  ``P(24) = 175.4 W``

The idle share matches public Cascade Lake package-idle measurements; the
per-core increment is the fitted slope.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_non_negative_finite, check_range
from repro.cpu.xeon import XEON_8260M, CPUDescriptor

__all__ = ["CPUPowerModel"]


@dataclass(frozen=True)
class CPUPowerModel:
    """Affine socket power in the number of active cores.

    Parameters
    ----------
    cpu:
        Machine descriptor (bounds the active-core count).
    idle_watts:
        Package power with all cores idle.
    per_core_watts:
        Increment per fully-active core.
    """

    cpu: CPUDescriptor = XEON_8260M
    idle_watts: float = 60.2
    per_core_watts: float = 4.8

    def __post_init__(self) -> None:
        check_non_negative_finite(self.idle_watts, "idle_watts")
        check_non_negative_finite(self.per_core_watts, "per_core_watts")

    def watts(self, active_cores: int) -> float:
        """Socket draw with ``active_cores`` busy."""
        check_range(active_cores, "active_cores", f"[0, {self.cpu.cores}]")
        return self.idle_watts + self.per_core_watts * active_cores

    def energy_joules(self, active_cores: int, seconds: float) -> float:
        """Energy over ``seconds`` with ``active_cores`` busy."""
        check_non_negative_finite(seconds, "seconds")
        return self.watts(active_cores) * seconds

    def efficiency(self, options_per_second: float, active_cores: int) -> float:
        """Options/second/Watt (Table II's last column)."""
        check_non_negative_finite(options_per_second, "options_per_second")
        return options_per_second / self.watts(active_cores)
