"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems exit 2, numeric or
infeasibility problems exit 3, and a failed verification run exits 4. A
size above an oracle's cap is a validation problem.
"""


class CqwError(Exception):
    """Base class for all package errors."""


class ValidationError(CqwError):
    """Configuration input that fails the schema or a mode requirement."""


class DomainError(CqwError, ValueError):
    """Arguments outside the mathematical domain of an operation."""


class NumericError(CqwError):
    """Quadrature, normalization, or conditioning failure."""


class InfeasibleDesignError(CqwError):
    """No bias satisfies the alignment and two-level requirements."""


class SizeError(ValidationError):
    """Problem size above a hard enumeration limit."""
