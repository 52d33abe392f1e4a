"""Exception types shared across the package."""

from __future__ import annotations


class EdgeListError(ValueError):
    """Malformed edge-list or event input. Carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class UndefinedDensityError(ValueError):
    """The density matrix L / tr(L) of a graph is undefined: it has no edges,
    or tr(L) is too small or too large to normalize."""


class TridiagonalEigenError(RuntimeError):
    """Symmetric tridiagonal eigensolver failed; carries the offending matrix."""

    def __init__(self, message: str, alpha=None, beta=None):
        super().__init__(message)
        self.alpha = alpha
        self.beta = beta


class ConvergenceError(RuntimeError):
    """The iterative eigensolver did not converge; carries its best estimates."""

    def __init__(self, message: str, best_estimates=None):
        super().__init__(message)
        self.best_estimates = best_estimates
