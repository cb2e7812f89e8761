"""Paper-vs-measured comparison records.

The reproduction's promise is *shape*, not absolute numbers: who wins, by
roughly what factor, and where the crossovers fall.  :class:`Comparison`
captures one such check (a measured ratio against the paper's ratio with a
tolerance); :func:`shape_report` renders a batch of them, and the
benchmarks assert ``all(c.passes for c in ...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import check_positive_finite
from repro.errors import ValidationError

__all__ = ["Comparison", "compare_ratio", "shape_report"]


@dataclass(frozen=True)
class Comparison:
    """One shape check.

    Parameters
    ----------
    label:
        What is being compared (e.g. ``"vectorised / baseline speedup"``).
    measured / expected:
        The two values.
    rel_tolerance:
        Allowed relative deviation of ``measured`` from ``expected``.
    """

    label: str
    measured: float
    expected: float
    rel_tolerance: float = 0.25

    def __post_init__(self) -> None:
        if self.expected == 0:
            raise ValidationError(f"{self.label}: expected value must be non-zero")
        check_positive_finite(self.rel_tolerance, "rel_tolerance")

    @property
    def relative_error(self) -> float:
        """``|measured - expected| / |expected|``."""
        return abs(self.measured - self.expected) / abs(self.expected)

    @property
    def passes(self) -> bool:
        """Whether the measurement falls within tolerance."""
        return self.relative_error <= self.rel_tolerance

    def render(self) -> str:
        """One-line PASS/FAIL rendering."""
        status = "PASS" if self.passes else "FAIL"
        return (
            f"[{status}] {self.label}: measured {self.measured:,.3f} vs "
            f"paper {self.expected:,.3f} "
            f"(dev {self.relative_error:.1%}, tol {self.rel_tolerance:.0%})"
        )


def compare_ratio(
    label: str,
    measured_num: float,
    measured_den: float,
    paper_num: float,
    paper_den: float,
    *,
    rel_tolerance: float = 0.25,
) -> Comparison:
    """Compare a measured ratio against the same ratio from the paper."""
    if measured_den == 0 or paper_den == 0:
        raise ValidationError(f"{label}: denominators must be non-zero")
    return Comparison(
        label=label,
        measured=measured_num / measured_den,
        expected=paper_num / paper_den,
        rel_tolerance=rel_tolerance,
    )


def shape_report(title: str, comparisons: list[Comparison]) -> str:
    """Render a batch of comparisons with a summary verdict line."""
    lines = [title, "=" * len(title)]
    lines.extend(c.render() for c in comparisons)
    n_pass = sum(1 for c in comparisons if c.passes)
    lines.append(f"-- {n_pass}/{len(comparisons)} shape checks pass")
    return "\n".join(lines)
