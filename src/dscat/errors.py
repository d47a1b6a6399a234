"""Exception types shared across the package."""


class DscatError(Exception):
    """Base class for all errors raised by this package.

    Every subclass survives pickling with its type, message and attributes,
    also one whose __init__ takes other arguments than its message.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls, args: tuple, state: dict) -> DscatError:
    """An instance of cls with the given args and attributes, made without
    calling cls.__init__."""
    exc = cls.__new__(cls, *args)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class DomainError(DscatError):
    """Input lies outside the admissible domain (branch point proximity, a <= 1, c = 0, ...)."""


class PathError(DomainError):
    """A polyline path violates the branch-point clearance or closure rules."""


class ContinuationError(DscatError):
    """Analytic continuation lost the curve: sheet residual or determinant drift too large."""


class LanesFailed(ContinuationError):
    """A sheet or drift check of the frame transport failed on some lanes.

    The message names the point of the curve and the c of the first failing
    lane; lanes holds the indices of every failing lane among those the
    failing integration ran, (0,) for the scalar kernel's one lane.
    """

    def __init__(self, message: str, lanes):
        self.lanes = tuple(int(i) for i in lanes)
        super().__init__(message)


class StepLimitExceeded(DscatError):
    """Adaptive integrator exceeded its step budget, or its step size
    underflowed at the point z of the polyline (z None for a budget)."""

    def __init__(self, message: str, z: complex | None = None):
        self.z = z
        super().__init__(message)


class NotInSU11(DscatError):
    """Matrix failed the SU(1,1) membership precondition."""


class PoleError(DscatError):
    """Moebius transformation evaluated at a pole."""


class DegenerateDenominator(DscatError):
    """Period-function denominator vanished: a gap in a scan, a pole in refinement."""


class LostBracket(DscatError):
    """Sign change disappeared while refining a bracket (grid aliasing)."""


class NotAdmissible(DscatError):
    """Crossing value fails |f| > 1, or the bracket refined onto a pole instead of a root."""


class VerificationFailed(DscatError):
    """Gauged monodromy failed the SU(1,1) closure test."""

    def __init__(self, loop_index: int, residual: float):
        self.loop_index = loop_index
        self.residual = residual
        super().__init__(
            f"gauged monodromy Phi{loop_index} failed SU(1,1) closure "
            f"(residual {residual:.3e})"
        )


class ResonantExponent(DscatError):
    """Indicial exponent is within tolerance of an integer (excluded log-term case)."""


class EigenvalueMismatch(DscatError):
    """Measured end-loop eigenvalues disagree with the indicial prediction."""


class DegeneratePoint(DscatError):
    """dg or dG too small for the frame-reconstruction or Schwarzian diagnostics."""


class SingularPoint(DscatError):
    """Operation requires a regular point but |g| = 1 within tolerance."""
