"""Double-precision operator latency and resource table.

The figures approximate Vitis HLS 2020.2 characterisation of
double-precision floating-point cores on UltraScale+ at a 300 MHz kernel
clock.  The single load-bearing number for the paper is the **seven-cycle
double-precision add**: an accumulation ``sum += x[i]`` carries its
dependency through that adder, forcing the pipelined loop's initiation
interval to 7 (Section III, "the accumulation, a double precision add,
requires seven cycles to complete").

All other entries shape the fill latencies and resource totals of the
simulated engines; they are documented approximations, not vendor data
(the vendor tables are not redistributable), and the tests only rely on
their relative magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_count, check_index
from repro.errors import ValidationError

__all__ = ["OpSpec", "OP_TABLE", "op", "DADD_LATENCY", "SADD_LATENCY"]


@dataclass(frozen=True)
class OpSpec:
    """Latency and resource cost of one hardware operator instance.

    Parameters
    ----------
    name:
        Operator mnemonic (``dadd``, ``dmul``, ...).
    latency:
        Pipeline latency in cycles at the reference 300 MHz clock.
    ii:
        Initiation interval of the operator core itself (1 for all fully
        pipelined FP cores).
    dsp / lut / ff:
        Resource cost of one instance.
    """

    name: str
    latency: int
    ii: int
    dsp: int
    lut: int
    ff: int

    def __post_init__(self) -> None:
        check_index(self.latency, f"{self.name}.latency")
        check_count(self.ii, f"{self.name}.ii")
        for field in ("dsp", "lut", "ff"):
            check_index(getattr(self, field), f"{self.name}.{field}")


#: Reference latency of the double-precision adder — the source of the II=7
#: accumulation bottleneck the paper fixes with Listing 1.
DADD_LATENCY = 7

#: Latency of the single-precision adder — the paper's "further work"
#: direction ("further exploration around reduced precision") halves the
#: accumulation dependency length.
SADD_LATENCY = 4

#: Approximate UltraScale+ operator characterisation at 300 MHz.
#: ``d*`` = double precision, ``s*`` = single precision (the reduced-
#: precision study of :mod:`repro.core.precision` uses the latter).
OP_TABLE: dict[str, OpSpec] = {
    spec.name: spec
    for spec in [
        OpSpec("dadd", latency=DADD_LATENCY, ii=1, dsp=3, lut=700, ff=1100),
        OpSpec("dsub", latency=DADD_LATENCY, ii=1, dsp=3, lut=700, ff=1100),
        OpSpec("dmul", latency=6, ii=1, dsp=11, lut=300, ff=600),
        OpSpec("ddiv", latency=29, ii=1, dsp=0, lut=3200, ff=5800),
        OpSpec("dexp", latency=30, ii=1, dsp=26, lut=7000, ff=9000),
        OpSpec("dlog", latency=27, ii=1, dsp=19, lut=6100, ff=8200),
        OpSpec("dsqrt", latency=28, ii=1, dsp=0, lut=3000, ff=5500),
        OpSpec("dcmp", latency=2, ii=1, dsp=0, lut=150, ff=200),
        OpSpec("i2d", latency=5, ii=1, dsp=0, lut=250, ff=400),
        OpSpec("d2i", latency=5, ii=1, dsp=0, lut=250, ff=400),
        OpSpec("dmux", latency=1, ii=1, dsp=0, lut=80, ff=80),
        OpSpec("sadd", latency=SADD_LATENCY, ii=1, dsp=2, lut=380, ff=600),
        OpSpec("ssub", latency=SADD_LATENCY, ii=1, dsp=2, lut=380, ff=600),
        OpSpec("smul", latency=4, ii=1, dsp=3, lut=150, ff=300),
        OpSpec("sdiv", latency=16, ii=1, dsp=0, lut=800, ff=1600),
        OpSpec("sexp", latency=17, ii=1, dsp=7, lut=1800, ff=2500),
        OpSpec("scmp", latency=1, ii=1, dsp=0, lut=80, ff=100),
    ]
}


def op(name: str) -> OpSpec:
    """Look up an operator by mnemonic.

    Raises
    ------
    ValidationError
        If the mnemonic is unknown (lists the known ones).
    """
    try:
        return OP_TABLE[name]
    except KeyError:
        known = ", ".join(sorted(OP_TABLE))
        raise ValidationError(f"unknown operator {name!r}; known: {known}") from None
