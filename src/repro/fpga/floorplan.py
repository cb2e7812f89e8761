"""Engine-count fitting on a device ("we were able to fit five", Section IV).

The fit is resource-driven: ``n`` engine instances fit when the summed
resource vector stays below the device budget derated by the routable
ceiling on every component.  For the paper's vectorised engine the binding
resource is DSP slices (each replica of the hazard/interpolation cluster
carries its own double-precision datapath), which is what stops a sixth
engine fitting on the U280.

:class:`Floorplan` additionally assigns engines round-robin to SLRs, since a
kernel straddling super-logic regions rarely closes timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.validation import check_count
from repro.errors import ResourceError, ValidationError
from repro.fpga.device import FPGADevice
from repro.hls.resources import ResourceUsage

__all__ = ["Floorplan", "max_engines"]


def max_engines(
    device: FPGADevice,
    engine_resources: ResourceUsage,
    *,
    shell_resources: ResourceUsage | None = None,
) -> int:
    """Largest engine count fitting under the device's routable ceiling.

    Parameters
    ----------
    device:
        Target card.
    engine_resources:
        Resource vector of one engine instance.
    shell_resources:
        Static shell/platform overhead reserved before engines are placed
        (XDMA, HBM controllers...).  Defaults to a representative U280
        shell footprint.
    """
    shell = shell_resources if shell_resources is not None else _DEFAULT_SHELL
    if engine_resources == ResourceUsage():
        raise ValidationError("engine resources are zero; nothing to place")
    n = 0
    while True:
        total = shell + engine_resources.scale(n + 1)
        if not total.fits_within(device.resources, ceiling=device.routable_ceiling):
            return n
        n += 1


#: Representative static shell footprint for a U280 XDMA platform.
_DEFAULT_SHELL = ResourceUsage(lut=120_000, ff=160_000, bram36=200, uram=0, dsp=12)


@dataclass
class Floorplan:
    """A concrete placement of ``n_engines`` onto a device.

    Construction validates the fit and assigns each engine to an SLR
    round-robin; :meth:`describe` renders the placement and utilisation.
    """

    device: FPGADevice
    engine_resources: ResourceUsage
    n_engines: int
    shell_resources: ResourceUsage = field(default_factory=lambda: _DEFAULT_SHELL)

    def __post_init__(self) -> None:
        check_count(self.n_engines, "n_engines")
        total = self.total_resources
        total.require_fit(
            self.device.resources,
            ceiling=self.device.routable_ceiling,
            what=f"{self.n_engines}-engine design on {self.device.name}",
        )

    @property
    def total_resources(self) -> ResourceUsage:
        """Shell plus all engine instances."""
        return self.shell_resources + self.engine_resources.scale(self.n_engines)

    @property
    def slr_assignment(self) -> list[int]:
        """SLR index per engine (round-robin)."""
        return [i % self.device.slr_count for i in range(self.n_engines)]

    def utilisation(self) -> dict[str, float]:
        """Device utilisation fractions of the placed design."""
        return self.total_resources.utilisation(self.device.resources)

    def headroom_engines(self) -> int:
        """How many more engines would still fit."""
        return (
            max_engines(
                self.device,
                self.engine_resources,
                shell_resources=self.shell_resources,
            )
            - self.n_engines
        )

    def describe(self) -> str:
        """Multi-line placement report."""
        util = self.utilisation()
        lines = [
            f"{self.n_engines} engine(s) on {self.device.name} "
            f"(ceiling {self.device.routable_ceiling:.0%})",
            f"  SLR assignment: {self.slr_assignment}",
        ]
        for key, frac in util.items():
            lines.append(f"  {key:<8} {frac:>7.1%}")
        lines.append(f"  headroom: {self.headroom_engines()} more engine(s)")
        return "\n".join(lines)


def require_fit_or_explain(
    device: FPGADevice, engine_resources: ResourceUsage, n_engines: int
) -> Floorplan:
    """Build a floorplan or raise a :class:`ResourceError` with guidance."""
    try:
        return Floorplan(
            device=device, engine_resources=engine_resources, n_engines=n_engines
        )
    except ResourceError as exc:
        limit = max_engines(device, engine_resources)
        raise ResourceError(
            f"{exc}; at most {limit} engine(s) of this configuration fit on "
            f"{device.name}"
        ) from exc
