"""Maximal closest reference set: every efficient DMU that can carry weight
in some convex representation of a closest projection.

A single envelopment-form LP over the rows of the dataset's ``Frontier``
finds a representation whose support is maximal.  Each efficient DMU gets a
capped component (alpha, in [0, 1]) and an uncapped one (beta >= 0); the
target point gets the same pair, and the whole system is homogeneous, so
any convex representation can be scaled up until every DMU that can
participate has a strictly positive alpha.
Maximizing the alpha total therefore exposes the union of all supports, and
normalizing by the target's own aggregate recovers the maximal-support
intensity vector.  The box bounds on alpha are exactly the kind of
structure the bounded-variable simplex handles without extra rows.

An efficient DMU often needs no LP.  Every optimal basis of its BCC phase 1
and of its intercept LPs prices a hyperplane that supports every DMU and
passes through it, and the solver reports which DMU columns it prices out.
In any convex representation of the DMU, a DMU priced strictly off such a
hyperplane carries zero weight (Ali & Seiford 1993).  The efficient DMUs C
those masks leave can then carry weight only through
sum_C lambda_j (z_j - z_p) = 0 with lambda >= 0, for z = (x, y).  When every
DMU of C lies strictly above the DMU's point in one input or output, or
every one strictly below, the sum vanishes only at lambda_C = 0, and the DMU
is its own maximal closest reference set with weight 1.  The comparisons
are exact, on the data.  A twin of the DMU, or a DMU inside a face with
frontier DMUs on both sides of it in every coordinate, still solves the LP,
as does every inefficient DMU's target.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .efficiency import Frontier
from .errors import AnalysisError, require_optimal
from .projection import Projection
from .solver import LinearProgram, SolverConfig, solve_lp
from .solver.model import FEAS_TOL

BORDERLINE_WEIGHT = 1e-9


@dataclass(frozen=True)
class McrsResult:
    """Maximal closest reference set of one DMU.

    ``lambda_max`` is the maximal-support intensity vector aligned with
    ``columns`` (the frontier's dataset indices); ``members`` the dataset
    indices with weight above the zero threshold; ``ucrs`` the (sample)
    unary reference set read off the final projection stage.
    """

    dmu: int
    columns: tuple[int, ...]
    lambda_max: np.ndarray
    members: tuple[int, ...]
    ucrs: tuple[int, ...]


def solve_max_support_lp(frontier: Frontier, projection: Projection,
                         cfg: SolverConfig = SolverConfig()) -> np.ndarray:
    """Intensity vector over the frontier (``frontier.indices`` order) that
    represents the projection's target point with maximal support, scaled
    back to a convex combination."""
    m, s = frontier.dataset.m, frontier.dataset.s
    t = frontier.size
    nv = 2 * (t + 1)  # [alpha (t+1), beta (t+1)]

    # envelopment columns [x; y; 1] of the efficient DMUs and, negated, of the
    # target point; the alpha and the beta components share them
    target = np.concatenate([projection.target_inputs, projection.target_outputs, [1.0]])
    block = np.column_stack([np.vstack([frontier.x.T, frontier.y.T, np.ones(t)]), -target])
    a = np.hstack([block, block])
    b = np.zeros(m + s + 1)

    c = np.zeros(nv)
    c[:t + 1] = 1.0
    lower = np.zeros(nv)
    upper = np.full(nv, np.inf)
    upper[:t + 1] = 1.0

    name = frontier.dataset.names[projection.dmu]
    lp = LinearProgram("max", c, a, ("=",) * (m + s + 1), b, lower, upper)
    # zero is feasible and alpha is boxed, so the LP has an optimum
    x = require_optimal(solve_lp(lp, cfg), f"support LP for DMU {name!r}").x
    alpha, beta = x[:t + 1], x[t + 1:]
    denom = float(alpha[t] + beta[t])
    if denom < 1.0 - FEAS_TOL * 10:
        # any optimum can be rescaled so the target aggregate reaches 1
        raise AnalysisError(f"support LP for DMU {name!r}: target aggregate {denom} below 1")
    return (alpha[:t] + beta[:t]) / denom


def _alone_on_supports(frontier: Frontier, projection: Projection,
                       supports: Sequence[np.ndarray]) -> bool:
    """Whether ``supports`` prove that the projection's DMU p is the only
    efficient DMU in any convex representation of it.

    Only an efficient DMU's own point qualifies.  A mask that prices p
    itself off belongs to a hyperplane that misses it and is ignored.  The
    other masks rule out what they flag.  In any representation of
    z_p = (x_p, y_p), the efficient DMUs j they leave then satisfy
    sum_j lambda_j (z_j - z_p) = 0 with lambda >= 0.  A coordinate in which
    each z_j - z_p is positive, or each negative, forces every lambda_j to 0.
    """
    dataset, p = frontier.dataset, projection.dmu
    if (not supports or projection.stages or p not in frontier
            or not np.array_equal(projection.target_inputs, dataset.x[p])
            or not np.array_equal(projection.target_outputs, dataset.y[p])):
        return False
    ruled_out = np.arange(dataset.n) == p
    for off in supports:
        if not off[p]:
            ruled_out |= off
    left = ~ruled_out[list(frontier.indices)]
    diff = np.hstack([frontier.x[left], frontier.y[left]]) - np.concatenate(
        [dataset.x[p], dataset.y[p]])
    # with no DMU left, every column holds vacuously
    return bool((diff > 0).all(axis=0).any() or (diff < 0).all(axis=0).any())


def identify_mcrs(frontier: Frontier, projection: Projection,
                  cfg: SolverConfig = SolverConfig(),
                  supports: Sequence[np.ndarray] = ()) -> McrsResult:
    """MCRS membership plus the maximal intensity weights behind it.

    ``supports`` are masks over the DMUs, each flagging the DMUs an optimal
    basis at an efficient DMU's own point prices out
    (``EfficiencyResult.priced_out``, ``RtsBounds.supports``).  A mask may
    flag only DMUs that carry zero weight in every representation of the
    point.  When one coordinate separates the DMU from every other
    efficient DMU the masks leave, no LP is solved.  Without masks the LP
    always runs.  A mask that is not a boolean array of n entries raises
    ValueError.
    """
    for k, off in enumerate(supports):
        if np.asarray(off).dtype != bool or np.shape(off) != (frontier.dataset.n,):
            raise ValueError(f"supports[{k}] is not a boolean array with one entry per DMU")
    if _alone_on_supports(frontier, projection, supports):
        lam = (np.array(frontier.indices) == projection.dmu).astype(float)
        return McrsResult(projection.dmu, frontier.indices, lam, (projection.dmu,),
                          (projection.dmu,))
    lam = solve_max_support_lp(frontier, projection, cfg)

    names = frontier.dataset.names
    members = []
    for k, j in enumerate(frontier.indices):
        if lam[k] > cfg.zero_tol:
            members.append(j)
        elif lam[k] > BORDERLINE_WEIGHT:
            warnings.warn(
                f"DMU {names[projection.dmu]!r}: reference weight for "
                f"{names[j]!r} is borderline ({lam[k]:.3e}); excluded from the MCRS",
                stacklevel=2)

    if projection.stages:
        final = projection.stages[-1].lambdas
        ucrs = tuple(j for k, j in enumerate(frontier.indices) if final[k] > cfg.zero_tol)
    else:
        ucrs = (projection.dmu,)  # efficient DMU: it represents itself
    return McrsResult(projection.dmu, frontier.indices, lam, tuple(members), ucrs)
