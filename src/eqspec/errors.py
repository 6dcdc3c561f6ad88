"""Exception types shared across the package."""


class EqspecError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EqspecError):
    """Malformed text input (graph file, partition string, family string)."""


class DisconnectedInput(EqspecError):
    """Operation requires a connected graph / strongly connected digraph."""


class DimensionMismatch(EqspecError):
    """Matrix/partition dimensions are incompatible."""


class NotNonnegative(EqspecError):
    """Matrix has a negative entry where nonnegativity is required."""


class NotEquitable(EqspecError):
    """Partition is not equitable for the given matrix."""


class NotSymmetric(EqspecError):
    """Matrix is not symmetric where symmetry is required."""


class InvalidParameters(EqspecError):
    """Family or formula parameters violate their bounds."""


class UnsupportedFamily(EqspecError):
    """The requested operation is not defined for this family."""


class UnknownClaim(EqspecError):
    """Claim id is not in the verification catalogue."""


class BudgetExceeded(EqspecError):
    """Enumeration size exceeds the hard desk-scale budget."""


class ConvergenceFailure(EqspecError):
    """LAPACK's eigensolver failed to converge."""


class ZeroPolynomial(EqspecError):
    """Roots of the zero polynomial are undefined."""
