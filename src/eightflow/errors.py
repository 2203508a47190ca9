"""Exception hierarchy.

Two broad families matter for the CLI exit codes: ValidationError for bad
inputs and violated preconditions (exit 1), NumericalError for failures that
arise during computation (exit 2).
"""


class EightflowError(Exception):
    pass


class ValidationError(EightflowError):
    pass


class NumericalError(EightflowError):
    pass


class InvalidCurve(ValidationError):
    """Curve data violates the closed-immersed-curve invariants."""


class DegenerateTangent(NumericalError):
    """Discrete tangent vector too short to normalize (x_u^2 + y_u^2 < 1e-24)."""


class TangentialCrossing(NumericalError):
    """Two polyline segments overlap collinearly; crossing is flagged, not resolved."""


class NotBalanced(ValidationError):
    """Operation requires zero signed area (and zero total turning where noted)."""


class StepRejected(NumericalError):
    """A time step's stage is not an immersed curve; the step is not retried."""


class MaxStepsExceeded(NumericalError):
    pass


class AreaNotDecreasing(ValidationError):
    """Extinction-time extrapolation needs a decreasing area history."""


class SolveFailed(NumericalError):
    """Linear solve produced an unacceptable residual."""


class Extinct(ValidationError):
    """Exact solution queried at or past its extinction time."""


class ExtinctionUnresolved(NumericalError):
    """Extinction-time bracket too wide for the requested rate analysis."""


class OscBelowPi(ValidationError):
    """Tangent-angle oscillation <= pi; the isoperimetric threshold is undefined."""


class NotInsideReaper(ValidationError):
    """Barrier comparison requires the initial curve strictly inside the reaper region."""
