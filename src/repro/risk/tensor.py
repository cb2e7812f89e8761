"""Dense scenario tensors: the layout batched repricing reads.

Every in-repo scenario generator (parallel, bucketed, recovery,
historical replay, Monte Carlo) shocks the *values* of the base curves on
their original knot grids — the grid itself never moves.  A scenario set
is therefore a pair of dense matrices (one row of shocked knot values per
scenario and curve) plus a recovery-shift vector, with the knot-time
grids shared across the whole set.  :class:`ScenarioTensor` is that
representation — the input layout of
:func:`~repro.core.vector_pricing.price_packed_many`, where the scenario
axis of the risk grid becomes a leading array dimension instead of a
Python loop over :class:`~repro.core.curves.Curve` objects.

Generated sets are tensor-first: ``monte_carlo`` and
``historical_replay`` write the tensor, and their scenarios are a
:class:`~repro.risk.scenarios.ScenarioView` over it.  A tuple of
scenarios is lowered on demand; if its knot grids differ,
:meth:`ScenarioTensor.try_pack` returns ``None`` and revaluation falls
back to the per-scenario loop, which handles arbitrary curves.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from repro.core.vector_pricing import is_frozen
from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenarios
    # imports this module to write tensors at generation time)
    from repro.risk.scenarios import ScenarioSet

__all__ = ["ScenarioTensor"]


@dataclass(frozen=True, eq=False)
class ScenarioTensor:
    """A :class:`ScenarioSet` lowered into dense arrays.

    Compared by identity (the array fields make a field-wise ``==``
    ill-defined).

    Attributes
    ----------
    yield_times:
        ``(k_y,)`` yield knot grid shared by every scenario.
    yield_values:
        ``(n_scenarios, k_y)`` shocked zero-rate rows.
    hazard_times:
        ``(k_h,)`` hazard knot grid shared by every scenario.
    hazard_values:
        ``(n_scenarios, k_h)`` shocked intensity rows.
    recovery_shifts:
        ``(n_scenarios,)`` additive recovery-rate shifts.

    Only shapes are checked here; a tensor may hold invalid cells (a
    quote server fails just the requests that read them).  A scenario
    set checks the values of the rows it views.
    """

    yield_times: np.ndarray
    yield_values: np.ndarray
    hazard_times: np.ndarray
    hazard_values: np.ndarray
    recovery_shifts: np.ndarray

    def __post_init__(self) -> None:
        if self.yield_values.ndim != 2 or self.hazard_values.ndim != 2:
            raise ValidationError("scenario value arrays must be 2-D")
        n = self.yield_values.shape[0]
        if self.hazard_values.shape[0] != n or self.recovery_shifts.shape != (n,):
            raise ValidationError(
                "scenario axis mismatch: "
                f"{n} yield rows, {self.hazard_values.shape[0]} hazard rows, "
                f"{self.recovery_shifts.shape} recovery shifts"
            )
        if self.yield_values.shape[1] != self.yield_times.size:
            raise ValidationError(
                f"yield rows of width {self.yield_values.shape[1]} do not "
                f"match a {self.yield_times.size}-knot grid"
            )
        if self.hazard_values.shape[1] != self.hazard_times.size:
            raise ValidationError(
                f"hazard rows of width {self.hazard_values.shape[1]} do not "
                f"match a {self.hazard_times.size}-knot grid"
            )
        # Immutability, matching the Curve convention (copy then freeze):
        # the tensor is shared alongside the immutable scenario curves,
        # and a mutated row would silently break the batch==loop
        # bit-identity pin and a quote server's table of its tape.
        # Arrays read-only down their whole base chain (the generators
        # freeze the buffers they own) pass through copy-free if they
        # are row-major; a read-only view of a writable buffer is
        # copied, since writing the buffer would change it, and so is a
        # column-major array, whose row gathers are slower.
        for f in fields(self):
            arr = getattr(self, f.name)
            if not (is_frozen(arr) and arr.flags.c_contiguous):
                arr = arr.copy()
                arr.flags.writeable = False
                object.__setattr__(self, f.name, arr)

    @property
    def n_scenarios(self) -> int:
        """Scenarios in the tensor (the leading axis)."""
        return int(self.yield_values.shape[0])

    @classmethod
    def from_scenario_set(cls, scenario_set: ScenarioSet) -> "ScenarioTensor":
        """Lower ``scenario_set`` into dense arrays.

        A set whose scenarios are a view over a tensor returns that
        tensor; a tuple of scenarios is lowered curve by curve.

        Raises
        ------
        ValidationError
            If the scenarios do not all share one yield knot grid and one
            hazard knot grid (use :meth:`try_pack` to fall back instead).
        """
        if scenario_set.tensor is not None:
            return scenario_set.tensor
        scenarios = scenario_set.scenarios
        yc_times = np.asarray(scenarios[0].yield_curve.times, dtype=np.float64)
        hc_times = np.asarray(scenarios[0].hazard_curve.times, dtype=np.float64)
        for s in scenarios[1:]:
            if not np.array_equal(s.yield_curve.times, yc_times) or not (
                np.array_equal(s.hazard_curve.times, hc_times)
            ):
                raise ValidationError(
                    f"scenario set {scenario_set.name!r} mixes knot grids; "
                    "cannot lower it to a dense scenario tensor"
                )
        yield_values = np.stack(
            [np.asarray(s.yield_curve.values, dtype=np.float64) for s in scenarios]
        )
        hazard_values = np.stack(
            [np.asarray(s.hazard_curve.values, dtype=np.float64) for s in scenarios]
        )
        recovery_shifts = np.asarray(
            [s.recovery_shift for s in scenarios], dtype=np.float64
        )
        for arr in (yield_values, hazard_values, recovery_shifts):
            arr.flags.writeable = False  # freshly built: freeze copy-free
        return cls(
            yield_times=yc_times,
            yield_values=yield_values,
            hazard_times=hc_times,
            hazard_values=hazard_values,
            recovery_shifts=recovery_shifts,
        )

    @classmethod
    def try_pack(cls, scenario_set: ScenarioSet) -> "ScenarioTensor | None":
        """Lower ``scenario_set``, or ``None`` when its grids are mixed."""
        try:
            return cls.from_scenario_set(scenario_set)
        except ValidationError:
            return None
