"""Exception types shared across the package."""

__all__ = [
    "MertonFactorError",
    "ModelError",
    "DomainError",
    "NotZMatrixError",
    "NotMMatrixError",
    "SingularMatrixError",
    "DiscretizationError",
    "ConvergenceError",
    "IllPosedError",
]


class MertonFactorError(Exception):
    """Base class for all package errors."""


class ModelError(MertonFactorError, ValueError):
    """Invalid model data: bad schema, inconsistent arrays, parameter out of range."""


class DomainError(MertonFactorError, ValueError):
    """Evaluation outside the factor state space."""


class NotZMatrixError(MertonFactorError, ValueError):
    """A positive off-diagonal entry where a Z-matrix is required."""


class NotMMatrixError(MertonFactorError, ValueError):
    """The operator failed M-matrix certification where one is required."""


class SingularMatrixError(MertonFactorError, ArithmeticError):
    """A linear solve hit an exactly or numerically singular matrix."""


class DiscretizationError(MertonFactorError, ValueError):
    """Grid construction failed: bad bounds, degenerate volatility, step too coarse."""


class ConvergenceError(MertonFactorError, RuntimeError):
    """An iterative solver stopped without meeting its tolerance.

    The last iterate, when available, is attached as ``last_iterate``.
    """

    def __init__(self, message, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class IllPosedError(MertonFactorError, RuntimeError):
    """The problem is ill-posed; the certificate is attached as ``report``."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
