"""Two-phase BCC efficiency evaluation under variable returns to scale.

Phase 1 shrinks the radial input factor theta as far as the technology
allows; phase 2 pins theta at that optimum and maximizes the total slack.
A DMU is efficient exactly when theta is 1 and every slack is zero, which
realizes the non-Archimedean objective without ever instantiating an
epsilon coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import AnalysisError, SolverLimitError
from .solver import LinearProgram, Solution, SolveStatus, SolverConfig, solve_lp, vertex_start


@dataclass(frozen=True)
class EfficiencyResult:
    """BCC score and max-slack completion for one DMU.

    ``slacks`` holds the m input slacks followed by the s output slacks.
    ``lambdas`` is the intensity vector over the full dataset from the
    phase-2 solution.
    """

    dmu: int
    theta: float
    slacks: np.ndarray
    lambdas: np.ndarray
    is_efficient: bool


@dataclass(frozen=True)
class EfficientSet:
    """Ordered index set of the efficient DMUs (dataset order)."""

    indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.indices)

    def __contains__(self, o: int) -> bool:
        return o in self.indices


def _bcc_program(dataset: Dataset, o: int, theta_bounds: tuple[float, float],
                 phase2: bool) -> LinearProgram:
    """Envelopment system over variables [theta, lambda (n), s_in (m), s_out (s)].

    Input rows:   sum_j lambda_j x_ij + s_i - theta * x_io = 0
    Output rows:  sum_j lambda_j y_rj - s_{m+r} = y_ro
    Convexity:    sum_j lambda_j = 1
    """
    x, y = dataset.x, dataset.y
    n, m, s = dataset.n, dataset.m, dataset.s
    nv = 1 + n + m + s

    a = np.zeros((m + s + 1, nv))
    a[:m, 0] = -x[o]
    a[:, 1:1 + n] = np.vstack([x.T, y.T, np.ones(n)])
    a[:m + s, 1 + n:] = np.diag(np.concatenate([np.ones(m), -np.ones(s)]))
    b = np.concatenate([np.zeros(m), y[o], [1.0]])

    c = np.zeros(nv)
    if phase2:
        c[1 + n:] = 1.0
        sense = "max"
    else:
        c[0] = 1.0
        sense = "min"

    lower = np.zeros(nv)
    upper = np.full(nv, np.inf)
    lower[0], upper[0] = theta_bounds
    return LinearProgram(sense, c, a, ("=",) * (m + s + 1), b, lower, upper)


def _unit_vertex(dataset: Dataset, o: int) -> Solution:
    """Phase-1 start at theta = 1, lambda_o = 1 with every slack zero.

    The basic columns are the slacks of their own rows, lambda_o in the
    convexity row, and theta in place of the slack of the input row with
    the largest x_io.  Up to row order the basis matrix is triangular with
    pivots +-1, 1 and -x_io, the largest theta can take, so it is
    nonsingular whenever x_o is not all zero.
    """
    n, m, s = dataset.n, dataset.m, dataset.s
    x = np.zeros(1 + n + m + s)
    x[0] = x[1 + o] = 1.0
    columns = np.r_[1 + n + np.arange(m + s), 1 + o]
    columns[int(np.argmax(dataset.x[o]))] = 0
    return vertex_start(columns, x)


def evaluate_bcc(dataset: Dataset, o: int, cfg: SolverConfig = SolverConfig()) -> EfficiencyResult:
    """Radial score, max-slack completion, and efficiency flag for DMU ``o``."""
    name = dataset.names[o]
    n, m, s = dataset.n, dataset.m, dataset.s

    # the feasible vertex theta = 1, lambda_o = 1 spares phase 1 its artificial phase
    phase1 = solve_lp(_bcc_program(dataset, o, (0.0, np.inf), phase2=False), cfg,
                      warm_start=_unit_vertex(dataset, o))
    if phase1.status is SolveStatus.ITERATION_LIMIT:
        raise SolverLimitError(f"BCC phase 1 for DMU {name!r} hit the iteration limit")
    if phase1.status is not SolveStatus.OPTIMAL:
        # lambda_o = 1, theta = 1 is always feasible, so this is a solver bug
        raise AnalysisError(f"BCC phase 1 for DMU {name!r} returned {phase1.status.value}")
    theta = float(phase1.objective)

    # same rows and columns with theta pinned at its optimum, so the phase-1
    # basis stays feasible and phase 2 resumes from it
    phase2 = solve_lp(_bcc_program(dataset, o, (theta, theta), phase2=True), cfg,
                      warm_start=phase1)
    if phase2.status is SolveStatus.ITERATION_LIMIT:
        raise SolverLimitError(f"BCC phase 2 for DMU {name!r} hit the iteration limit")
    if phase2.status is not SolveStatus.OPTIMAL:
        raise AnalysisError(f"BCC phase 2 for DMU {name!r} returned {phase2.status.value}")

    slacks = phase2.x[1 + n: 1 + n + m + s].copy()
    lambdas = phase2.x[1: 1 + n].copy()
    efficient = theta >= 1.0 - cfg.zero_tol and float(np.abs(slacks).max()) <= cfg.zero_tol
    return EfficiencyResult(o, theta, slacks, lambdas, efficient)


def evaluate_all(dataset: Dataset, cfg: SolverConfig = SolverConfig()) -> list[EfficiencyResult]:
    return [evaluate_bcc(dataset, o, cfg) for o in range(dataset.n)]


def efficient_set(dataset: Dataset, cfg: SolverConfig = SolverConfig()) -> EfficientSet:
    """Indices of every efficient DMU, including non-extreme frontier members."""
    results = evaluate_all(dataset, cfg)
    return EfficientSet(tuple(r.dmu for r in results if r.is_efficient))
