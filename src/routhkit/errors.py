"""Exception types shared across the package."""


class RouthKitError(Exception):
    """Base class for all routhkit-specific errors."""


class ParseError(RouthKitError, ValueError):
    """Polynomial text could not be parsed."""


class EmptyPolynomial(ParseError):
    """Input denotes the zero polynomial, which cannot be analyzed."""


class UnpairedComplexRoot(RouthKitError, ValueError):
    """Non-real roots must come in conjugate pairs."""


class DegreeTooSmall(RouthKitError, ValueError):
    """Operation requires a polynomial of degree at least one."""


class OriginRoot(RouthKitError, ValueError):
    """Array construction requires a nonzero constant term; strip origin
    roots first."""


class PolicyUnsupported(RouthKitError):
    """The selected degenerate-case policy cannot handle this array."""


class EpsContaminatedRow(PolicyUnsupported):
    """An auxiliary polynomial was requested from a row that already
    contains the infinitesimal, so its real coefficients are undefined."""


class OracleUnavailable(RouthKitError):
    """The float root oracle cannot run on this polynomial: its monic
    coefficients leave the range of a double, or a residual at its roots is
    not finite."""


class NoParameter(RouthKitError, ValueError):
    """Sweep input contains no `K` placeholder."""


class MultipleParameters(RouthKitError, ValueError):
    """Sweep input contains more than one `K` placeholder."""
