"""Error types raised across the package.

Each class names one failure condition; callers that want a catch-all can
use :class:`PadicCubicError`.
"""


class PadicCubicError(Exception):
    """Base class for every error raised by this package."""


class PrimeError(PadicCubicError):
    """The modulus is not a prime greater than 3."""


class ZeroDenominator(PadicCubicError):
    """A rational was constructed with denominator zero."""


class ZeroArgument(PadicCubicError):
    """An operation that needs a nonzero p-adic number received zero."""


class DivisionByZero(PadicCubicError):
    """Inversion or division by the zero element."""


class ZeroResidue(PadicCubicError):
    """A residue argument that must be a unit mod p was divisible by p."""


class ZeroCoefficient(PadicCubicError):
    """A cubic coefficient a or b was zero (the theory assumes ab != 0)."""


class BadEnvironment(PadicCubicError):
    """An environment variable that sets a bound is not a positive integer."""


class ScanBoundExceeded(PadicCubicError):
    """A residue scan was requested for a prime above the scan bound."""


class BoundExceeded(PadicCubicError):
    """A brute-force enumeration modulus exceeded the configured bound."""


class NotDoubleRoot(PadicCubicError):
    """The closed form for a repeated root was invoked with nonzero discriminant."""


class SingularSeed(PadicCubicError):
    """Hensel lifting was attempted at a residue where the derivative vanishes mod p."""


class NonconvergentSeed(PadicCubicError):
    """The explicit series was requested outside its convergence region."""


class DegenerateConstruction(PadicCubicError):
    """A root-triple construction produced a zero root or a zero coefficient."""


class ZeroDiscriminant(PadicCubicError):
    """The enumeration-based root count needs a nonzero discriminant."""


class InternalInconsistency(PadicCubicError):
    """Two independent computations of the same fact disagreed (a bug, surfaced loudly)."""


class UsageError(PadicCubicError):
    """Malformed command-line input."""
