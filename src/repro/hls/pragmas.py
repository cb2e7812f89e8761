"""HLS pragma descriptors.

These dataclasses describe the synthesis directives applied to each kernel
of the simulated engines.  They do not *execute* anything — they carry the
parameters that the timing and resource models consume, and they render back
to the ``#pragma HLS ...`` source form for the synthesis-style reports
(:mod:`repro.hls.report`), so a reader can map every simulated stage to the
HLS code the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_count
from repro.errors import ValidationError

__all__ = ["Pipeline", "Unroll", "DataflowPragma", "ArrayPartition", "StreamPragma"]


@dataclass(frozen=True)
class Pipeline:
    """``#pragma HLS PIPELINE II=<ii>``.

    The initiation interval the scheduler *requests*; the achieved II may be
    larger when a loop-carried dependency (such as the accumulation through
    a 7-cycle double add) prevents the request being met.
    """

    ii: int = 1

    def __post_init__(self) -> None:
        check_count(self.ii, "ii")

    def render(self) -> str:
        """Source form of the pragma."""
        return f"#pragma HLS PIPELINE II={self.ii}"


@dataclass(frozen=True)
class Unroll:
    """``#pragma HLS UNROLL [factor=<k>]`` (full unroll when factor is None).

    Listing 1's inner loop over the seven partial sums is fully unrolled.
    """

    factor: int | None = None

    def __post_init__(self) -> None:
        if self.factor is not None:
            check_count(self.factor, "factor", 2)

    def render(self) -> str:
        """Source form of the pragma."""
        if self.factor is None:
            return "#pragma HLS UNROLL"
        return f"#pragma HLS UNROLL factor={self.factor}"


@dataclass(frozen=True)
class DataflowPragma:
    """``#pragma HLS DATAFLOW`` — functions in scope run concurrently,
    connected by streams.  ``disable_start_propagation`` mirrors the Vitis
    option used for free-running regions."""

    disable_start_propagation: bool = False

    def render(self) -> str:
        """Source form of the pragma."""
        if self.disable_start_propagation:
            return "#pragma HLS DATAFLOW disable_start_propagation"
        return "#pragma HLS DATAFLOW"


@dataclass(frozen=True)
class ArrayPartition:
    """``#pragma HLS ARRAY_PARTITION variable=<v> <kind> [factor=<k>]``.

    Listing 1 relies on the seven-element partial-sum array being fully
    partitioned into registers so all seven adds proceed independently.
    """

    variable: str
    kind: str = "complete"
    factor: int | None = None

    _KINDS = ("complete", "cyclic", "block")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValidationError(
                f"ARRAY_PARTITION kind must be one of {self._KINDS}, got {self.kind!r}"
            )
        if self.kind == "complete" and self.factor is not None:
            raise ValidationError("complete partition takes no factor")
        if self.kind != "complete":
            check_count(self.factor, "factor", 2)

    def render(self) -> str:
        """Source form of the pragma."""
        base = f"#pragma HLS ARRAY_PARTITION variable={self.variable} {self.kind}"
        if self.factor is not None:
            base += f" factor={self.factor}"
        return base


@dataclass(frozen=True)
class StreamPragma:
    """``#pragma HLS STREAM variable=<v> depth=<d>`` — FIFO sizing."""

    variable: str
    depth: int = 2

    def __post_init__(self) -> None:
        check_count(self.depth, "depth")

    def render(self) -> str:
        """Source form of the pragma."""
        return f"#pragma HLS STREAM variable={self.variable} depth={self.depth}"
