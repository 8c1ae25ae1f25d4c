"""Exception hierarchy shared across the package."""


class ElastripError(Exception):
    """Base class for all package errors."""


class ConstraintError(ElastripError):
    """A physical or geometric constraint is violated; the message names it."""


class ConfigError(ElastripError):
    """Invalid or incomplete run configuration."""


class SingularTransformError(ElastripError):
    """The domain-flattening map is not invertible for this surface/cutoff."""


class NonConvergenceError(ElastripError):
    """Linear solver failed to reach the requested residual."""

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history


class DiagnosticError(ElastripError):
    """A solution-level invariant (energy balance, Poincare, ...) failed."""
