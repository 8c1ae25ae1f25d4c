"""Exception hierarchy shared across the package.

Each error type carries the exit code of the command line, ``exit_code``,
as click's ``ClickException`` does: 1 for a configuration or constraint
error, 2 for a numerical failure (the base class's code), 3 for a
diagnostic invariant violation.
"""


class ElastripError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class ConstraintError(ElastripError):
    """A physical or geometric constraint is violated; the message names it."""

    exit_code = 1


class ConfigError(ElastripError):
    """Invalid or incomplete run configuration."""

    exit_code = 1


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

    exit_code = 3
