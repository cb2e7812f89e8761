"""FPGA device descriptors.

:data:`ALVEO_U280` matches the paper's description of the card: "an FPGA
with 1.3 million LUTs, 4.5MB of BRAM, 30MB of UltraRAM (URAM), and 9024 DSP
slices.  This PCIe card also contains 8GB of High Bandwidth Memory (HBM2)
and 32GB of DRAM on the board" (Section II.B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_count, check_positive_finite, check_range
from repro.hls.resources import BRAM36_BYTES, URAM_BYTES, ResourceUsage

__all__ = ["FPGADevice", "ALVEO_U280", "ALVEO_U50", "ALVEO_U250", "DEVICE_CATALOG"]


@dataclass(frozen=True)
class FPGADevice:
    """Static description of an FPGA accelerator card.

    Parameters
    ----------
    name:
        Marketing name.
    resources:
        Fabric resource budget.
    slr_count:
        Super-logic-region count (dies on the interposer); a single engine
        should not straddle SLRs, which quantises floorplanning.
    hbm_bytes / dram_bytes:
        On-card memory sizes.
    default_clock_hz:
        Typical achieved kernel clock for HLS designs on this card.
    routable_ceiling:
        Utilisation fraction beyond which timing closure realistically
        fails; caps how many engines fit.
    """

    name: str
    resources: ResourceUsage
    slr_count: int
    hbm_bytes: int
    dram_bytes: int
    default_clock_hz: float
    routable_ceiling: float = 0.9

    def __post_init__(self) -> None:
        check_count(self.slr_count, "slr_count")
        check_positive_finite(self.default_clock_hz, "default_clock_hz")
        check_range(self.routable_ceiling, "routable_ceiling", "(0, 1]")

    @property
    def bram_bytes(self) -> int:
        """Total BRAM capacity in bytes."""
        return self.resources.bram36 * BRAM36_BYTES

    @property
    def uram_bytes(self) -> int:
        """Total URAM capacity in bytes."""
        return self.resources.uram * URAM_BYTES

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        r = self.resources
        return "\n".join(
            [
                f"{self.name}",
                f"  LUT {r.lut:,} / FF {r.ff:,} / DSP {r.dsp:,}",
                f"  BRAM {self.bram_bytes / 2**20:.1f} MiB "
                f"({r.bram36} x RAMB36)",
                f"  URAM {self.uram_bytes / 2**20:.1f} MiB ({r.uram} blocks)",
                f"  HBM {self.hbm_bytes / 2**30:.0f} GiB, "
                f"DRAM {self.dram_bytes / 2**30:.0f} GiB",
                f"  {self.slr_count} SLRs, default clock "
                f"{self.default_clock_hz / 1e6:.0f} MHz",
            ]
        )


#: The paper's card.  BRAM: 4.5 MB ~= 1008 RAMB36 tiles; URAM: 30 MB ~= 853
#: usable blocks of 288 Kbit (the silicon has 960; the paper quotes the
#: usable 30 MB).  FF count is twice the LUT count as on UltraScale+.
ALVEO_U280 = FPGADevice(
    name="Xilinx Alveo U280",
    resources=ResourceUsage(
        lut=1_304_000,
        ff=2_607_000,
        bram36=1008,
        uram=960,
        dsp=9024,
    ),
    slr_count=3,
    hbm_bytes=8 * 2**30,
    dram_bytes=32 * 2**30,
    default_clock_hz=300e6,
    routable_ceiling=0.9,
)

#: Smaller HBM card (portability study): single-slr-class budget, HBM only.
ALVEO_U50 = FPGADevice(
    name="Xilinx Alveo U50",
    resources=ResourceUsage(
        lut=872_000,
        ff=1_743_000,
        bram36=1344,
        uram=640,
        dsp=5952,
    ),
    slr_count=2,
    hbm_bytes=8 * 2**30,
    dram_bytes=0,
    default_clock_hz=300e6,
    routable_ceiling=0.9,
)

#: Largest DDR card of the family (portability study): no HBM — rate
#: tables still fit URAM, but option streaming rides DDR4.
ALVEO_U250 = FPGADevice(
    name="Xilinx Alveo U250",
    resources=ResourceUsage(
        lut=1_728_000,
        ff=3_456_000,
        bram36=2688,
        uram=1280,
        dsp=12_288,
    ),
    slr_count=4,
    hbm_bytes=0,
    dram_bytes=64 * 2**30,
    default_clock_hz=300e6,
    routable_ceiling=0.9,
)

#: All catalogued cards, for portability sweeps.
DEVICE_CATALOG: tuple[FPGADevice, ...] = (ALVEO_U50, ALVEO_U250, ALVEO_U280)
