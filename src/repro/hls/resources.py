"""FPGA resource vectors.

A :class:`ResourceUsage` is the five-component resource cost of a design
piece (LUTs, flip-flops, BRAM36 blocks, URAM blocks, DSP slices).  Vectors
add and scale so an engine's cost composes from its stages and a card's
budget from the device descriptor; :meth:`ResourceUsage.fits_within`
implements the fit check behind "being able to fit five onto the Alveo
U280" (paper Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_index, check_range
from repro.errors import ResourceError, ValidationError

__all__ = ["ResourceUsage"]

#: Capacity of one block RAM tile in bytes (RAMB36: 36 Kbit).
BRAM36_BYTES = 36 * 1024 // 8

#: Capacity of one UltraRAM block in bytes (288 Kbit).
URAM_BYTES = 288 * 1024 // 8


@dataclass(frozen=True)
class ResourceUsage:
    """A non-negative resource vector.

    Attributes
    ----------
    lut / ff:
        Logic cells and flip-flops.
    bram36:
        36 Kbit block-RAM tiles.
    uram:
        288 Kbit UltraRAM blocks (where the engines keep the interest and
        hazard rate constant data).
    dsp:
        DSP48 slices.
    """

    lut: int = 0
    ff: int = 0
    bram36: int = 0
    uram: int = 0
    dsp: int = 0

    def __post_init__(self) -> None:
        for field_name in ("lut", "ff", "bram36", "uram", "dsp"):
            v = getattr(self, field_name)
            if not v >= 0:  # every sum and scale builds one: inline
                raise ValidationError(f"{field_name} must be >= 0, got {v}")

    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceUsage") -> "ResourceUsage":
        if not isinstance(other, ResourceUsage):
            return NotImplemented
        return ResourceUsage(
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            bram36=self.bram36 + other.bram36,
            uram=self.uram + other.uram,
            dsp=self.dsp + other.dsp,
        )

    def scale(self, k: int) -> "ResourceUsage":
        """Resource cost of ``k`` instances."""
        check_index(k, "k")
        return ResourceUsage(
            lut=self.lut * k,
            ff=self.ff * k,
            bram36=self.bram36 * k,
            uram=self.uram * k,
            dsp=self.dsp * k,
        )

    # ------------------------------------------------------------------
    def utilisation(self, budget: "ResourceUsage") -> dict[str, float]:
        """Per-component fraction of ``budget`` consumed (0 budget -> 0)."""
        out = {}
        for field_name in ("lut", "ff", "bram36", "uram", "dsp"):
            cap = getattr(budget, field_name)
            used = getattr(self, field_name)
            out[field_name] = (used / cap) if cap > 0 else (0.0 if used == 0 else float("inf"))
        return out

    def fits_within(
        self, budget: "ResourceUsage", *, ceiling: float = 1.0
    ) -> bool:
        """Whether this usage fits in ``budget`` derated by ``ceiling``.

        ``ceiling`` models the routable-utilisation limit: a design using
        more than ~80-90% of any resource class generally fails timing
        closure, which is what caps the engine count on the U280.
        """
        check_range(ceiling, "ceiling", "(0, 1]")
        return all(frac <= ceiling for frac in self.utilisation(budget).values())

    def require_fit(
        self, budget: "ResourceUsage", *, ceiling: float = 1.0, what: str = "design"
    ) -> None:
        """Raise :class:`ResourceError` with a breakdown if the fit fails."""
        util = self.utilisation(budget)
        over = {k: v for k, v in util.items() if v > ceiling}
        if over:
            detail = ", ".join(f"{k}={v:.1%}" for k, v in over.items())
            raise ResourceError(
                f"{what} exceeds the {ceiling:.0%} utilisation ceiling: {detail}"
            )

    # ------------------------------------------------------------------
    @staticmethod
    def for_table_bytes(n_bytes: int, *, in_uram: bool = True) -> "ResourceUsage":
        """Memory blocks needed to store ``n_bytes`` of constant table data."""
        check_index(n_bytes, "n_bytes")
        if n_bytes == 0:
            return ResourceUsage()
        if in_uram:
            blocks = -(-n_bytes // URAM_BYTES)
            return ResourceUsage(uram=blocks)
        blocks = -(-n_bytes // BRAM36_BYTES)
        return ResourceUsage(bram36=blocks)

    def describe(self) -> str:
        """Compact single-line rendering."""
        return (
            f"LUT={self.lut} FF={self.ff} BRAM36={self.bram36} "
            f"URAM={self.uram} DSP={self.dsp}"
        )
