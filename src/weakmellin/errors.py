"""Exception types shared across the package.

Every error raised on purpose by this library derives from WeakMellinError,
so callers can catch one base class.  PrecisionWarning is a Warning, not an
error: it signals a value was computed but cancellation ate most of the
significand.
"""


class WeakMellinError(Exception):
    """Base class for all library errors."""


class PoleError(WeakMellinError):
    """Evaluation requested at (or numerically on top of) a pole."""


class DomainError(WeakMellinError):
    """Input outside the region where the algorithm is trustworthy.  The
    CLI reports it as a config error (exit 2)."""


class DegenerateError(WeakMellinError):
    """Configuration degenerates (e.g. quadratic coefficient zero).  The
    CLI reports it as a config error (exit 2)."""


class SupportEscapeError(WeakMellinError):
    """Truncation range ended before the summand provably vanished."""


class QuadratureError(WeakMellinError):
    """Numerical integration failed its internal error check."""


class BoundaryZeroError(WeakMellinError):
    """A zero sits too close to a winding contour to count reliably."""


class NonIntegerWindingError(WeakMellinError):
    """Contour argument change did not converge to an integer multiple of 2*pi."""


class ConvergenceError(WeakMellinError):
    """Iteration (series, Newton, bisection) exhausted its budget."""


class UncertifiedError(WeakMellinError):
    """A result was produced but its certificate step failed."""


class PrecisionWarning(Warning):
    """Computed value suffered heavy cancellation; trailing digits are noise."""
