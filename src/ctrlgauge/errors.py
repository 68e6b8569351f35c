"""Exception types shared across the package."""


class CtrlGaugeError(Exception):
    """Base class for all ctrlgauge errors."""


class DimensionMismatch(CtrlGaugeError):
    """Matrix or vector shapes do not agree."""


class NonPositiveBound(CtrlGaugeError):
    """A rated or target bound is zero or negative."""


class MissingTarget(CtrlGaugeError):
    """Target-state bounds were requested but are not defined."""


class SingularA(CtrlGaugeError):
    """The state matrix is singular; backward dynamics are undefined."""


class UnstableGrowth(CtrlGaugeError):
    """Generator entries overflowed the growth guard during region build."""


class HorizonTooShort(CtrlGaugeError):
    """The requested horizon is below the state dimension."""


class BadRange(CtrlGaugeError):
    """Stage range is out of order or outside the built family."""


class BadAxes(CtrlGaugeError):
    """Projection axes are out of range or not distinct."""


class ZeroDirection(CtrlGaugeError):
    """A direction vector is zero or not finite."""


class NotConvex(CtrlGaugeError):
    """Polygon input violates the convex counterclockwise precondition."""


class TooManyGenerators(CtrlGaugeError):
    """Generator count exceeds the enumeration cap."""


class DegenerateZonotope(CtrlGaugeError):
    """The zonotope is flat; the requested estimate is undefined."""


class Infeasible(CtrlGaugeError):
    """The linear program has no feasible point.

    Carries a separating certificate direction when one is available.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class IterationLimit(CtrlGaugeError):
    """The simplex iteration cap was reached."""


class InternalError(CtrlGaugeError):
    """A solver invariant failed; indicates a bug, not bad input."""


class NotReachable(CtrlGaugeError):
    """The state is outside every region up to the step cap.

    Carries the infeasibility certificate for the final horizon when one
    is available.
    """

    def __init__(self, message, certificate=None, max_steps=None):
        super().__init__(message)
        self.certificate = certificate
        self.max_steps = max_steps


class NotMember(CtrlGaugeError):
    """The state is not in the region at the stated horizon."""


class PreconditionNotMet(CtrlGaugeError):
    """A documented precondition failed (for example, no containment)."""
