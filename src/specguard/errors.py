"""Exception hierarchy.

Everything raised on purpose by this package derives from SpecguardError so
callers (and the CLI) can distinguish our diagnostics from genuine bugs.
"""


class SpecguardError(Exception):
    """Base class for all specguard errors."""


class FormatError(SpecguardError):
    """Malformed file header or non-numeric/non-finite payload."""


class ShapeError(SpecguardError):
    """Dimension mismatch between inputs, or inconsistent row widths."""


class InsufficientDataError(SpecguardError):
    """Fewer samples than the operation requires."""


class NotSPDError(SpecguardError):
    """A matrix that must be symmetric positive definite is not."""


class IntegratorError(SpecguardError):
    """ODE integration produced a non-finite state."""


class IllConditionedGramError(SpecguardError):
    """Gram matrix reciprocal condition number below the floor."""

    def __init__(self, message: str, rcond: float):
        super().__init__(message)
        self.rcond = rcond


class UnstableKernelError(SpecguardError):
    """A metastability eigenvalue sits too close to 1."""


class WindowTooLargeError(SpecguardError):
    """Kernel lag window does not fit inside the sample."""


class UnsupportedModeError(SpecguardError):
    """Operation restricted to iid/exact-moment mode was called otherwise."""


class DegenerateSError(SpecguardError):
    """S[Q] could not be made positive definite even after a round-off ridge."""


class AtEigenvalueError(SpecguardError):
    """The characteristic matrix is singular: lambda is a sample eigenvalue."""


class CostGuardError(SpecguardError):
    """Problem size exceeds a hard cost guard (e.g. brute-force N limit)."""


class ResolutionGuardError(SpecguardError):
    """Quadrature resolution below the guard for the requested dictionary."""


class NumericError(SpecguardError):
    """Numerical failure, such as a non-finite matrix or a failed eigensolver."""


class UsageError(SpecguardError):
    """Invalid flag combination or value on the command line."""
