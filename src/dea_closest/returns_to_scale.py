"""Returns-to-scale classification via supporting-hyperplane intercepts.

At a frontier point, the family of supporting hyperplanes (normalized
against the point's own inputs) has an intercept range whose sign decides
the local scaling behavior: strictly negative everywhere means increasing
returns, strictly positive means decreasing, and a range straddling zero
means constant.  For an inefficient DMU the classification is performed at
its unique closest projection (closest RTS).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, PriorityRanking
from .efficiency import EfficientSet
from .errors import AnalysisError, SolverLimitError
from .projection import Projection, closest_projection
from .solver import LinearProgram, SolveStatus, SolverConfig, solve_lp


class RtsLabel(Enum):
    IRS = "irs"
    CRS = "crs"
    DRS = "drs"


@dataclass(frozen=True)
class RtsBounds:
    """Intercept range of the supporting hyperplanes at a frontier point.

    ``upper``/``lower`` may be +inf/-inf (endpoint points admit vertical
    supporting families).  ``stage_count`` records whether the minimizing
    stage was actually solved; when the maximizing stage already forces the
    label (upper < 0), the lower bound is reported as -inf unsolved.
    """

    upper: float
    lower: float
    stage_count: int


@dataclass(frozen=True)
class CrtsResult:
    dmu: int
    projection: Projection
    bounds: RtsBounds
    label: RtsLabel


def _intercept_program(dataset: Dataset, point_x: np.ndarray, point_y: np.ndarray,
                       sense: str) -> LinearProgram:
    """Hyperplane multipliers [w_in (m), w_out (s), intercept], normalized so
    the input prices of the evaluated point sum to 1, supporting every
    observed DMU and binding at the point."""
    n, m, s = dataset.n, dataset.m, dataset.s
    nv = m + s + 1

    # the normalization row, then the hyperplane row -w_in.x + w_out.y - w0
    # of every observed DMU and last of the point itself
    a = np.zeros((n + 2, nv))
    a[0, :m] = point_x
    a[1:] = np.hstack([-np.vstack([dataset.x, point_x]), np.vstack([dataset.y, point_y]),
                       -np.ones((n + 1, 1))])
    b = np.concatenate([[1.0], np.zeros(n + 1)])
    rel = ("=",) + ("<=",) * n + ("=",)

    c = np.zeros(nv)
    c[m + s] = 1.0
    lower = np.zeros(nv)
    lower[m + s] = -np.inf
    upper = np.full(nv, np.inf)
    return LinearProgram(sense, c, a, rel, b, lower, upper)


def intercept_bounds(dataset: Dataset, point_x: np.ndarray, point_y: np.ndarray,
                     cfg: SolverConfig = SolverConfig()) -> RtsBounds:
    """Two-stage intercept range at a frontier point.

    Stage 1 maximizes the intercept; when that already comes out negative
    the label is decided and stage 2 (minimization) is skipped.  Unbounded
    stages map to the corresponding infinity.  A frontier point always
    supports at least one hyperplane, so infeasibility means the caller's
    point is not on the frontier.
    """
    point_x = np.asarray(point_x, dtype=float)
    point_y = np.asarray(point_y, dtype=float)

    hi = solve_lp(_intercept_program(dataset, point_x, point_y, "max"), cfg)
    if hi.status is SolveStatus.INFEASIBLE:
        raise AnalysisError("intercept bounds requested at a point that is not "
                            "on the efficient frontier")
    if hi.status is SolveStatus.ITERATION_LIMIT:
        raise SolverLimitError("intercept maximization hit the iteration limit")
    upper = np.inf if hi.status is SolveStatus.UNBOUNDED else float(hi.objective)

    if upper < -cfg.zero_tol:
        return RtsBounds(upper, -np.inf, 1)

    lo = solve_lp(_intercept_program(dataset, point_x, point_y, "min"), cfg)
    if lo.status is SolveStatus.ITERATION_LIMIT:
        raise SolverLimitError("intercept minimization hit the iteration limit")
    if lo.status is SolveStatus.INFEASIBLE:
        raise AnalysisError("intercept bounds inconsistent between stages")
    lower = -np.inf if lo.status is SolveStatus.UNBOUNDED else float(lo.objective)
    return RtsBounds(upper, lower, 2)


def classify_rts(bounds: RtsBounds, cfg: SolverConfig = SolverConfig()) -> RtsLabel:
    """Sign test on the intercept range; |intercept| below zero_tol counts as zero."""
    if bounds.upper < -cfg.zero_tol:
        return RtsLabel.IRS
    if bounds.lower > cfg.zero_tol:
        return RtsLabel.DRS
    return RtsLabel.CRS


def closest_rts(dataset: Dataset, j_e: EfficientSet, o: int,
                priority: PriorityRanking,
                cfg: SolverConfig = SolverConfig()) -> CrtsResult:
    """RTS of the DMU's unique closest projection (the DMU itself when efficient)."""
    projection = closest_projection(dataset, j_e, o, priority, cfg)
    bounds = intercept_bounds(dataset, projection.target_inputs,
                              projection.target_outputs, cfg)
    return CrtsResult(o, projection, bounds, classify_rts(bounds, cfg))
