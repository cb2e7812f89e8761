"""FPGA card power model.

Table II of the paper reports near-flat card power as engines are added:
35.86 W with one engine, 35.79 W with two, 37.38 W with five — "the
additional power overhead of adding extra FPGA engines is fairly minimal".
The affine model below (static card power plus a small per-engine dynamic
increment) is fitted by least squares to those three points:

``P(n) = 35.24 + 0.415 * n``  (watts)

which reproduces the measurements to within the run-to-run noise the paper
itself exhibits (power at two engines is *below* power at one in Table II).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_index, check_non_negative_finite

__all__ = ["FPGAPowerModel"]


@dataclass(frozen=True)
class FPGAPowerModel:
    """Affine card power in the number of active engines.

    Parameters
    ----------
    static_watts:
        Card power with the shell loaded and clocks running but no engine
        active: HBM refresh, transceivers, shell logic, fans.
    per_engine_watts:
        Dynamic increment per active CDS engine.
    """

    static_watts: float = 35.24
    per_engine_watts: float = 0.415

    def __post_init__(self) -> None:
        check_non_negative_finite(self.static_watts, "static_watts")
        check_non_negative_finite(self.per_engine_watts, "per_engine_watts")

    def watts(self, n_engines: int) -> float:
        """Card power draw with ``n_engines`` active."""
        check_index(n_engines, "n_engines")
        return self.static_watts + self.per_engine_watts * n_engines

    def energy_joules(self, n_engines: int, seconds: float) -> float:
        """Energy for a run of ``seconds`` with ``n_engines`` active."""
        check_non_negative_finite(seconds, "seconds")
        return self.watts(n_engines) * seconds

    def efficiency(self, options_per_second: float, n_engines: int) -> float:
        """Power efficiency in options/second/Watt (Table II's last column)."""
        check_non_negative_finite(options_per_second, "options_per_second")
        return options_per_second / self.watts(n_engines)
