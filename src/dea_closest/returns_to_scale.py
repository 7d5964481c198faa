"""Returns-to-scale classification via supporting-hyperplane intercepts.

At a frontier point, the family of supporting hyperplanes (normalized
against the point's own inputs) has an intercept range whose sign decides
the local scaling behavior: strictly negative everywhere means increasing
returns, strictly positive means decreasing, and a range straddling zero
means constant.  For an inefficient DMU the classification is performed at
its unique closest projection (closest RTS).  Each end of the range is an
LP in envelopment form (Banker & Thrall 1992), with m+s+1 rows for any n.
Each LP starts at its best vertex with at most one positive lambda, so
neither runs an artificial phase where some DMU gives it one.  Both LPs of
every point share one matrix: its n lambda columns and the slack columns
are the dataset's, and only the u0 and mu columns hold the point.  The two
stages differ only in the sign of the objective's sense and of the last
right-hand-side entry, so each dataset's pair of standardized systems is
built once, at a zero point, and every point solves copies of its matrix
with its own columns written in.  The optimal
prices of each one are a hyperplane that supports every DMU at the point;
the DMUs whose lambda column they price out lie strictly off it, and that
mask is kept for the maximal closest reference set.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .data import Dataset, PriorityRanking
from .efficiency import Frontier
from .errors import AnalysisError, failure_context, require_optimal
from .projection import Projection, closest_projection
from .solver import Basis, LinearProgram, SolveStatus, SolverConfig, solve_lp
from .solver.simplex import StandardizedLP, standardize


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
    c = np.zeros(n + 2)
    c[0] = sigma
    b = np.zeros(m + s + 1)
    b[m + s] = sigma
    lower = np.zeros(n + 2)
    lower[:2] = -np.inf
    return LinearProgram(dual_sense, c, a, (">=",) * (m + s) + ("=",), b, lower,
                         np.full(n + 2, np.inf))


# keyed by Dataset, which compares by identity; a weak key keeps none alive
_SYSTEMS: weakref.WeakKeyDictionary[Dataset, tuple[StandardizedLP, StandardizedLP]] = (
    weakref.WeakKeyDictionary())


def _intercept_systems(dataset: Dataset) -> tuple[StandardizedLP, StandardizedLP]:
    """The standardized upper- and lower-stage intercept programs of
    ``dataset`` at a zero point, built on first use and read-only.

    Both come from ``_intercept_program`` through ``standardize``, so each
    is validated and equals, bit for bit, what a point's own program gives
    outside the u0 and mu columns.  They share one matrix (the two stages'
    matrices are equal) and differ in ``b`` (+e_last or -e_last), ``c`` and
    ``sense_sign`` (+1 or -1).  Both ``c`` minimize u0, but the lower
    stage's holds -0.0 where the upper's holds 0.0, and a zero objective
    takes its sign from them, so each stage keeps its own.
    """
    systems = _SYSTEMS.get(dataset)
    if systems is None:
        zero_x, zero_y = np.zeros(dataset.m), np.zeros(dataset.s)
        upper = standardize(_intercept_program(dataset, zero_x, zero_y, "max"))
        lower = replace(standardize(_intercept_program(dataset, zero_x, zero_y, "min")),
                        a=upper.a, a_abs=upper.a_abs)
        for std in (upper, lower):
            for arr in (std.a, std.a_abs, std.b, std.c, std.lower, std.upper,
                        std.slack_of_row):
                arr.flags.writeable = False
        systems = _SYSTEMS[dataset] = (upper, lower)
    return systems


def _single_dmu_vertex(dataset: Dataset, point_x: np.ndarray, point_y: np.ndarray,
                       sigma: float) -> Basis | None:
    """The basis of the stage-``sigma`` intercept program's vertex with the
    lowest u0 among those with at most one positive lambda; None when there
    is none.

    With lambda_j = L alone, the equality row gives mu = -sigma - L and the
    input rows u0 = -sigma + L.(max_i x_ij/x_pi - 1), the maximum over the
    point's positive inputs (a positive lambda_j needs x_ij = 0 wherever
    x_pi = 0).  L is set by the output row that binds first: for sigma = +1
    it is the smallest L with L.(y_rj - y_pr) >= y_pr on every row, so j
    must exceed the point on each of its positive outputs; for sigma = -1,
    where u0 falls with L only when j lies below the point in every input,
    it is the largest L with L.(y_pr - y_rj) <= y_pr.  An output counts as
    above or below the point only by more than 1e-9.(1 + |y_pr|): a target
    that is an efficient DMU moved by rounding would otherwise start a stage
    at L near y_pr/1e-14.  The DMU with the lowest u0 is taken, ties to the
    lowest index.  Without one, the sigma = -1 stage starts at L = 0
    (lambda = 0, mu = 1, u0 = 1), its vertex for every point, and the
    sigma = +1 stage, which has no such vertex, cold.

    Over the standardized columns [u0, mu, lambda (n), row slacks (m+s)],
    u0 is basic in place of the slack of the binding input row, lambda_j in
    place of that of the binding output row, mu in the equality row, and
    every other row's slack in its own row; every nonbasic column rests at
    zero.
    """
    n, m, s = dataset.n, dataset.m, dataset.s
    columns = np.arange(n + 2, n + 3 + m + s)
    columns[m + s] = 1  # mu in the equality row
    i, j = int(point_x.argmax()), None  # the binding input row, and the DMU with lambda_j > 0
    pos = point_x > 0
    if pos.any():
        ratio = dataset.x[:, pos] / point_x[pos]
        top = ratio.max(axis=1)
        fits = (dataset.x[:, ~pos] == 0).all(axis=1)
        gap = dataset.y - point_y
        tiny = 1e-9 * (1.0 + np.abs(point_y))  # a gap of rounding size is no gap
        if sigma > 0:
            rows = point_y > 0
            fits &= rows.any() & (gap > tiny)[:, rows].all(axis=1)
        else:
            rows = gap < -tiny
            fits &= (top < 1) & rows.any(axis=1)
        idx = np.flatnonzero(fits)
        if idx.size:
            if sigma < 0:
                rows = rows[idx]
            limits = np.where(rows, point_y / np.where(rows, np.abs(gap[idx]), 1.0),
                              0.0 if sigma > 0 else np.inf)
            lams = limits.max(axis=1) if sigma > 0 else limits.min(axis=1)
            rises = lams * (top[idx] - 1.0)
            k = int(rises.argmin())
            j = int(idx[k])
            r = int(limits[k].argmax() if sigma > 0 else limits[k].argmin())
            i = int(np.flatnonzero(pos)[ratio[j].argmax()])
            columns[m + r] = 2 + j
    if sigma > 0 and j is None:
        return None  # no DMU qualified
    columns[i] = 0
    return Basis(columns)


def intercept_bounds(dataset: Dataset, point_x: np.ndarray, point_y: np.ndarray,
                     cfg: SolverConfig = SolverConfig()) -> RtsBounds:
    """Two-stage intercept range at a frontier point, statuses read by LP duality.

    Stage 1 bounds the intercept from above; a negative bound decides the
    label and stage 2 is skipped.  An unbounded dual means that no hyperplane
    supports the point, so it is off the frontier.  An infeasible stage-1 dual
    reads as upper = +inf; a point without support also gives one, and stage
    2 then finds it.  Stage 2 is feasible at lambda=0, mu=1, u0=1, so lower >= -1.
    Each stage starts from its best vertex with at most one positive lambda;
    stage 1, which has no such vertex when no DMU exceeds the point in every
    positive output, is then solved cold.  Both stages solve the dataset's
    cached standardized systems (``_intercept_systems``) with one copy of
    their matrix that holds the point's u0 and mu columns; the answers are
    those of ``_intercept_program`` bit for bit.  A point whose shapes are
    not (m,) and (s,), or that holds a NaN or an infinity, raises
    ``ValueError``.
    """
    point_x = np.asarray(point_x, dtype=float)
    point_y = np.asarray(point_y, dtype=float)
    m, s = dataset.m, dataset.s
    if point_x.shape != (m,) or point_y.shape != (s,):
        raise ValueError(f"point shapes {point_x.shape} and {point_y.shape} do not match "
                         f"{m} inputs and {s} outputs")
    if not (np.isfinite(point_x).all() and np.isfinite(point_y).all()):
        raise ValueError(f"point with inputs {point_x} and outputs {point_y} is not finite")
    systems = _intercept_systems(dataset)
    a = systems[0].a.copy()
    a[:m, 0] = point_x
    a[:m, 1] = -point_x
    a[m:m + s, 1] = point_y
    a_abs = systems[0].a_abs.copy()
    a_abs[:, :2] = np.abs(a[:, :2])

    def solve(std: StandardizedLP, stage: str):
        start = _single_dmu_vertex(dataset, point_x, point_y, std.sense_sign)
        sol = solve_lp(replace(std, a=a, a_abs=a_abs), cfg, start)
        if sol.status is SolveStatus.UNBOUNDED:
            raise AnalysisError("intercept bounds requested at a point that is not "
                                "on the efficient frontier")
        if std.sense_sign > 0 and sol.status is SolveStatus.INFEASIBLE:
            return sol  # no finite upper bound
        return require_optimal(sol, f"intercept {stage}")

    def supports(*solved) -> tuple[np.ndarray, ...]:
        return tuple(sol.priced_out[2:] for sol in solved if sol.priced_out is not None)

    hi = solve(systems[0], "maximization")
    upper = np.inf if hi.status is SolveStatus.INFEASIBLE else float(hi.objective)
    if upper < -cfg.zero_tol:
        return RtsBounds(upper, -np.inf, 1, supports(hi))
    lo = solve(systems[1], "minimization")
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
