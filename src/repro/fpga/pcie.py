"""PCIe host-transfer model.

"The overhead of data transfer via PCIe is included for all FPGA results,
which nevertheless represents a small part of the overall execution time"
(paper Section II.B).  The engines therefore add, to every batch: the
one-off download of the two 1024-entry rate curves, the download of the
option vector, and the upload of the spread results.

The model is the standard latency + size/bandwidth affine model for a PCIe
Gen3 x16 link (the U280's host interface), with an effective bandwidth well
below the 15.75 GB/s wire rate to account for DMA descriptor and driver
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import (
    check_index,
    check_non_negative_finite,
    check_positive_finite,
)

__all__ = ["PCIeModel"]


@dataclass(frozen=True)
class PCIeModel:
    """Affine PCIe transfer-time model.

    Parameters
    ----------
    latency_s:
        Fixed per-transfer software + DMA setup latency.
    bandwidth_bytes_per_sec:
        Effective sustained bandwidth.
    """

    latency_s: float = 10e-6
    bandwidth_bytes_per_sec: float = 12e9

    def __post_init__(self) -> None:
        check_non_negative_finite(self.latency_s, "latency_s")
        check_positive_finite(self.bandwidth_bytes_per_sec, "bandwidth_bytes_per_sec")

    def transfer_seconds(self, n_bytes: int) -> float:
        """Seconds to move ``n_bytes`` in one DMA transfer."""
        check_index(n_bytes, "n_bytes")
        if n_bytes == 0:
            return 0.0
        return self.latency_s + n_bytes / self.bandwidth_bytes_per_sec

    def batch_seconds(
        self,
        n_options: int,
        n_rates: int,
        *,
        option_bytes: int = 24,
        result_bytes: int = 8,
        rate_entry_bytes: int = 16,
    ) -> float:
        """Total PCIe time for one CDS batch.

        Three transfers: rate curves down (two curves of ``n_rates``
        entries, two doubles each), options down (maturity, frequency,
        recovery — 24 bytes), spreads up (one double per option).
        """
        check_index(n_options, "n_options")
        check_index(n_rates, "n_rates")
        curves = self.transfer_seconds(2 * n_rates * rate_entry_bytes)
        options_down = self.transfer_seconds(n_options * option_bytes)
        results_up = self.transfer_seconds(n_options * result_bytes)
        return curves + options_down + results_up
