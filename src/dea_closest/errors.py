"""Exception types shared across the analysis pipeline, and the rule that
maps a solve status to one of them."""

from __future__ import annotations

from contextlib import contextmanager

from .solver.model import Solution, SolveStatus


class DeaError(Exception):
    """Base class for all errors raised by this package; ``exit_code`` is the
    CLI's exit status for it and ``label`` the prefix of its stderr message."""

    exit_code: int
    label: str = ""


class ValidationError(DeaError):
    """Bad user input: malformed dataset, priority spec, or configuration.

    ``row`` and ``column`` are 1-based coordinates into the offending file
    when the error originates from dataset parsing, else None.
    """

    exit_code = 2

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        if row is not None and column is not None:
            message = f"row {row}, column {column}: {message}"
        elif row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row
        self.column = column


class SolverLimitError(DeaError):
    """A pivot or node budget ran out; the message names the DMU and stage."""

    exit_code = 3
    label = "solver limit: "


class AnalysisError(DeaError):
    """Internal contract violation: a model that is feasible and bounded by
    construction was not solved to optimality, or a caller passed a point off
    the efficient frontier.  A bug or numerical trouble, not bad user data."""

    exit_code = 5
    label = "analysis: "


_LIMITS = {SolveStatus.ITERATION_LIMIT: "iteration", SolveStatus.NODE_LIMIT: "node"}


def require_optimal(sol: Solution, subject: str) -> Solution:
    """``sol`` if optimal.  Every program passed here is feasible and bounded
    by construction, so any other status either spent a pivot or node budget
    (``SolverLimitError``) or broke a contract (``AnalysisError``); the
    message starts with ``subject``, which names the program."""
    if sol.status is SolveStatus.OPTIMAL:
        return sol
    if sol.status in _LIMITS:
        raise SolverLimitError(f"{subject} hit the {_LIMITS[sol.status]} limit")
    raise AnalysisError(f"{subject} returned {sol.status.value}")


@contextmanager
def failure_context(prefix: str):
    """Re-raise a solver-limit or analysis failure with ``prefix`` in front of
    its message, keeping its type (and so its CLI exit code)."""
    try:
        yield
    except (SolverLimitError, AnalysisError) as exc:
        raise type(exc)(f"{prefix}: {exc}") from exc
