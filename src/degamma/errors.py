"""Exception types shared across the package.

Overflow of a representable magnitude is reported with the builtin
:class:`OverflowError`; everything else derives from :class:`DegammaError`
so callers can catch library failures with a single except clause.
"""


class DegammaError(Exception):
    """Base class for every error raised by this package."""


class PoleError(DegammaError):
    """An argument sits on (or within tolerance of) a pole.

    Attributes
    ----------
    location : complex or None
        The pole itself, never the argument that sits on it.
    argument_name : str or None
        Which argument sits on the pole, e.g. ``"z"``, ``"alpha"`` or ``"beta"``.
    """

    def __init__(self, message, location=None, argument_name=None):
        super().__init__(message)
        self.location = location
        self.argument_name = argument_name


class BranchPointError(DegammaError):
    """The deformed exponential was evaluated at its branch point 1 + lambda*t = 0."""


class DomainError(DegammaError):
    """Argument outside the mathematical domain (e.g. log of zero)."""


class SingularParameterError(DegammaError):
    """lambda collides with 1/j, so an exact integer-argument product vanishes."""


class ParameterRangeError(DegammaError):
    """lambda (or the argument strip) violates the validity range of a recurrence."""


class StripError(DegammaError):
    """Evaluation requested outside the validity strip 0 < Re(s) < 1/lambda."""


class ConvergenceError(DegammaError):
    """A quadrature could not meet the requested tolerance, or its value overflows."""


class IntegerArgumentError(DegammaError):
    """Contour evaluation at integer s, where the sine prefactor vanishes."""
