"""Returns-to-scale classification via supporting-hyperplane intercepts.

At a frontier point, the family of supporting hyperplanes (normalized
against the point's own inputs) has an intercept range whose sign decides
the local scaling behavior: strictly negative everywhere means increasing
returns, strictly positive means decreasing, and a range straddling zero
means constant.  For an inefficient DMU the classification is performed at
its unique closest projection (closest RTS).  Each end of the range is an
LP in envelopment form (Banker & Thrall 1992), with m+s+1 rows for any n.
The optimal prices of each one are a hyperplane that supports every DMU at
the point; the DMUs whose lambda column they price out lie strictly off it,
and that mask is kept for the maximal closest reference set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import Dataset, PriorityRanking
from .efficiency import Frontier
from .errors import AnalysisError, failure_context, require_optimal
from .projection import Projection, closest_projection
from .solver import Basis, LinearProgram, SolveStatus, SolverConfig, solve_lp


class RtsLabel(Enum):
    IRS = "irs"
    CRS = "crs"
    DRS = "drs"


@dataclass(frozen=True)
class RtsBounds:
    """Intercept range of the supporting hyperplanes at a frontier point.

    ``upper`` may be +inf (endpoint points admit vertical supporting
    families); ``lower`` is at least -1.  ``stage_count`` records whether the
    minimizing stage was solved; when the maximizing stage already forces the
    label (upper < 0), ``lower`` is reported as -inf unsolved.  ``supports``
    holds, per solved stage, the mask of the DMUs whose lambda column its
    optimal basis prices out, strictly off that stage's supporting hyperplane.
    """

    upper: float
    lower: float
    stage_count: int
    supports: tuple[np.ndarray, ...] = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class CrtsResult:
    dmu: int
    projection: Projection
    bounds: RtsBounds
    label: RtsLabel


def _intercept_program(dataset: Dataset, point_x: np.ndarray, point_y: np.ndarray,
                       sense: str) -> LinearProgram:
    """Dual of optimizing (``sense``) the intercept w0 over multipliers w >= 0
    with w_in.point_x = 1, supporting every DMU and binding at the point.

    Columns [u0, mu, lambda (n) >= 0]; rows x_p.u0 - x_p.mu - X'lambda >= 0,
    y_p.mu + Y'lambda >= 0 and -mu - sum(lambda) = sigma.  "max" minimizes u0
    with sigma = +1 and "min" maximizes -u0 with sigma = -1, so either
    optimum is the intercept bound itself.
    """
    n, m, s = dataset.n, dataset.m, dataset.s
    sigma, dual_sense = (1.0, "min") if sense == "max" else (-1.0, "max")
    a = np.zeros((m + s + 1, n + 2))
    a[:m, 0] = point_x
    a[:m, 1] = -point_x
    a[:m, 2:] = -dataset.x.T
    a[m:m + s, 1] = point_y
    a[m:m + s, 2:] = dataset.y.T
    a[m + s, 1:] = -1.0
    return LinearProgram(dual_sense, np.r_[sigma, np.zeros(n + 1)], a,
                         (">=",) * (m + s) + ("=",), np.r_[np.zeros(m + s), sigma],
                         np.r_[-np.inf, -np.inf, np.zeros(n)], np.full(n + 2, np.inf))


def _unit_multipliers(dataset: Dataset, point_x: np.ndarray, point_y: np.ndarray) -> Basis:
    """Start of the minimizing stage at lambda = 0, mu = 1, u0 = 1.

    Over the standardized columns [u0, mu, lambda (n), row slacks (m+s)],
    the basic columns are the slacks of their own rows, mu in the equality
    row, and u0 in place of the slack of the input row with the largest
    x_p.  The input slacks are zero there and the output slacks equal y_p.
    """
    n, m, s = dataset.n, dataset.m, dataset.s
    x = np.r_[1.0, 1.0, np.zeros(n + m), point_y]
    columns = np.r_[n + 2 + np.arange(m + s), 1]
    columns[int(np.argmax(point_x))] = 0
    return Basis(columns, x)


def intercept_bounds(dataset: Dataset, point_x: np.ndarray, point_y: np.ndarray,
                     cfg: SolverConfig = SolverConfig()) -> RtsBounds:
    """Two-stage intercept range at a frontier point, statuses read by LP duality.

    Stage 1 bounds the intercept from above; a negative bound decides the
    label and stage 2 is skipped.  An unbounded dual means that no hyperplane
    supports the point, so it is off the frontier.  An infeasible stage-1 dual
    reads as upper = +inf; a point without support also gives one, and stage
    2 then finds it.  Stage 2 is feasible at lambda=0, mu=1, u0=1, so lower >= -1,
    and it starts from that vertex; stage 1 starts cold.
    """
    point_x = np.asarray(point_x, dtype=float)
    point_y = np.asarray(point_y, dtype=float)

    def solve(sense: str, stage: str, *start: Basis):
        sol = solve_lp(_intercept_program(dataset, point_x, point_y, sense), cfg, *start)
        if sol.status is SolveStatus.UNBOUNDED:
            raise AnalysisError("intercept bounds requested at a point that is not "
                                "on the efficient frontier")
        if sense == "max" and sol.status is SolveStatus.INFEASIBLE:
            return sol  # no finite upper bound
        return require_optimal(sol, f"intercept {stage}")

    def supports(*solved) -> tuple[np.ndarray, ...]:
        return tuple(sol.priced_out[2:] for sol in solved if sol.priced_out is not None)

    hi = solve("max", "maximization")
    upper = np.inf if hi.status is SolveStatus.INFEASIBLE else float(hi.objective)
    if upper < -cfg.zero_tol:
        return RtsBounds(upper, -np.inf, 1, supports(hi))
    lo = solve("min", "minimization", _unit_multipliers(dataset, point_x, point_y))
    return RtsBounds(upper, float(lo.objective), 2, supports(hi, lo))


def classify_rts(bounds: RtsBounds, cfg: SolverConfig = SolverConfig()) -> RtsLabel:
    """Sign test on the intercept range; |intercept| below zero_tol counts as zero."""
    if bounds.upper < -cfg.zero_tol:
        return RtsLabel.IRS
    if bounds.lower > cfg.zero_tol:
        return RtsLabel.DRS
    return RtsLabel.CRS


def closest_rts(frontier: Frontier, o: int, priority: PriorityRanking,
                cfg: SolverConfig = SolverConfig()) -> CrtsResult:
    """RTS of the DMU's unique closest projection (the DMU itself when efficient)."""
    projection = closest_projection(frontier, o, priority, cfg)
    with failure_context(f"returns to scale of DMU {frontier.dataset.names[o]!r}"):
        bounds = intercept_bounds(frontier.dataset, projection.target_inputs,
                                  projection.target_outputs, cfg)
    return CrtsResult(o, projection, bounds, classify_rts(bounds, cfg))
