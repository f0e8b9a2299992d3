"""Typed errors raised by the math layers.

Everything here signals a math-domain problem (bad matrix, bad state,
bad parameter); plain ``ValueError`` is reserved for malformed input
data such as unreadable files or out-of-range indices. Each is raised
where data enters or by an engine's one output check; a condition that
validated input cannot reach, such as a degenerate Gram-Schmidt step,
has no error of its own.
"""


class LowdinKitError(Exception):
    """Base class for all math-domain errors in this package."""


class NotHermitian(LowdinKitError):
    """Matrix is not Hermitian within tolerance."""


class NotPositiveDefinite(LowdinKitError):
    """Matrix has an eigenvalue at or below the positivity floor."""


class LinearlyDependent(NotPositiveDefinite):
    """Basis vectors are numerically linearly dependent."""


class ConvergenceFailure(LowdinKitError):
    """Iterative eigensolver did not converge."""


class NotNormalized(LowdinKitError):
    """Basis vector does not have unit norm."""


class DimensionMismatch(LowdinKitError):
    """Operands have incompatible dimensions."""


class UnsupportedDimension(LowdinKitError):
    """Operation is only defined for a specific dimension."""


class ZeroState(LowdinKitError):
    """State vector is zero (or has zero norm under the overlap metric)."""


class DegenerateTrace(LowdinKitError):
    """Density operator has negligible trace against the overlap matrix."""


class InvalidParameters(LowdinKitError):
    """Parameters violate the preconditions of a closed-form construction."""
