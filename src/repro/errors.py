"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate between configuration problems, numerical-input problems
and simulator-level problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ValidationError(ReproError, ValueError):
    """An input (curve, option, configuration) failed validation.

    Raised eagerly at construction time so that simulation and pricing code
    can assume well-formed inputs.
    """


class CurveError(ValidationError):
    """A term-structure curve is malformed (non-monotonic times, NaNs, ...)."""


class ScheduleError(ValidationError):
    """A payment schedule could not be generated from the option parameters."""


class CapabilityError(ReproError):
    """A pricing backend was asked for work its capability flags exclude.

    Raised by :mod:`repro.api` and its consumers when a call needs a
    capability (leg surfaces, streaming quotes, ...) the selected backend
    does not advertise.
    """


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulator reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No process can make progress but tokens remain in flight.

    This mirrors a hung HLS dataflow region: a stage blocked on a full output
    stream while its consumer is blocked on a different empty input.
    """


class ResourceError(ReproError):
    """A design does not fit on the target FPGA device."""


class CalibrationError(ReproError):
    """A calibration or bootstrap routine failed to converge."""
