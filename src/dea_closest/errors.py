"""Exception types shared across the analysis pipeline."""

from __future__ import annotations

from contextlib import contextmanager


class DeaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(DeaError):
    """Bad user input: malformed dataset, priority spec, or configuration.

    ``row`` and ``column`` are 1-based coordinates into the offending file
    when the error originates from dataset parsing, else None.
    """

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        if row is not None and column is not None:
            message = f"row {row}, column {column}: {message}"
        elif row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row
        self.column = column


class SolverLimitError(DeaError):
    """An iteration or node limit was hit while solving a model.

    Carries enough context (DMU name, stage) to point at the offending
    subproblem.
    """


class AnalysisError(DeaError):
    """Internal contract violation: a model that is feasible by construction
    came back infeasible, or a caller passed a point that is not on the
    efficient frontier. Indicates a bug or a broken precondition, not bad
    user data.
    """


@contextmanager
def failure_context(prefix: str):
    """Re-raise a solver-limit or analysis failure with ``prefix`` in front of
    its message, keeping its type (and so its CLI exit code)."""
    try:
        yield
    except (SolverLimitError, AnalysisError) as exc:
        raise type(exc)(f"{prefix}: {exc}") from exc
