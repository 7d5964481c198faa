"""Unique closest efficient targets via lexicographic slack minimization.

One program per slack, in priority order: minimize the current slack while
every previously optimized slack stays pinned at its optimum.  Feasible
points are exactly the slack vectors that land the DMU on the strongly
efficient frontier: intensity weights over the efficient DMUs describe the
target, a supporting hyperplane with multipliers >= 1 certifies strong
efficiency, and a complementarity pair per efficient DMU lets it carry
weight only if it lies on that hyperplane (lambda_k * d_k = 0).

The stage-1 programs of all DMUs over one frontier and first slack share
their matrix, objective and bounds and differ only in the DMU's own values
on the right-hand side.  The first projection with a given first slack
builds its stage-1 program, solves its root cold and keeps the program
with that optimal root basis on the ``Frontier``.  Every later one derives
its own program from it with ``dataclasses.replace`` by a new right-hand
side, and its stage-1 root re-optimizes from the kept basis, still dual
feasible, with the dual simplex instead of solving cold.  So a projection
depends on the frontier and on which DMU first fixed that basis, never on
the calls in between.  Within one DMU, stages 2..m+s are derived from its
stage-1 program the same way: the same rows, a new objective and one more
pin.  Every derived program shares its parent's matrix, so a basis resumed
across them keeps its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import PriorityRanking
from .efficiency import Frontier, dmu_index
from .errors import require_optimal
from .solver import LinearProgram, SolverConfig, solve_milp
from .solver.model import FEAS_TOL


@dataclass(frozen=True)
class StageSolution:
    """Snapshot of one lexicographic stage.

    ``slack_index`` is the slack minimized at this stage (0..m-1 inputs,
    m..m+s-1 outputs) and ``value`` its optimum.  The remaining fields are
    the full variable snapshot: intensities over the efficient set, all
    slacks, hyperplane multipliers and intercept, and per-DMU deviations
    below the hyperplane.
    """

    stage: int
    slack_index: int
    value: float
    lambdas: np.ndarray
    slacks: np.ndarray
    weights: np.ndarray
    intercept: float
    deviations: np.ndarray


@dataclass(frozen=True)
class Projection:
    """Closest efficient target of one DMU with its stage audit trail."""

    dmu: int
    target_inputs: np.ndarray
    target_outputs: np.ndarray
    slacks: np.ndarray
    stages: tuple[StageSolution, ...]
    priority: PriorityRanking


def _layout(t: int, n_slack: int) -> tuple[int, int, int, int]:
    """First columns of the slacks, multipliers, intercept and deviations in
    a stage program over t efficient DMUs; the t lambdas come first."""
    c_w = t + n_slack
    return t, c_w, c_w + n_slack, c_w + n_slack + 1


def build_stage_program(frontier: Frontier, o: int, target: int) -> LinearProgram:
    """Stage 1 of DMU ``o``: minimize slack ``target`` with no slack pinned.

    Variables: [lambda (t), slacks (m+s), multipliers (m+s), intercept,
    deviations (t)].  Each pair (lambda_k, d_k) is complementary, so an
    efficient DMU carries weight only when it lies on the hyperplane.
    ``derive_stage_program`` builds the later stages from this program.
    """
    m, s = frontier.dataset.m, frontier.dataset.s
    t = frontier.size

    n_slack = m + s
    c_s, c_w, c_w0, c_d = _layout(t, n_slack)
    nv = c_d + t

    # envelopment rows (sum lambda x + s_in = x_o, sum lambda y - s_out = y_o,
    # convexity), then one supporting-hyperplane row with deviation d_k per
    # efficient DMU
    rows = m + s + 1 + t
    a = np.zeros((rows, nv))
    a[:m + s + 1, :t] = np.vstack([frontier.x.T, frontier.y.T, np.ones(t)])
    a[:m + s, c_s:c_s + n_slack] = np.diag(np.concatenate([np.ones(m), -np.ones(s)]))
    a[m + s + 1:, c_w:c_w0 + 1] = np.hstack([-frontier.x, frontier.y, -np.ones((t, 1))])
    a[m + s + 1:, c_d:] = np.eye(t)
    b = _stage_rhs(frontier, o)

    lower = np.zeros(nv)
    upper = np.full(nv, np.inf)
    upper[:t] = 1.0
    lower[c_w:c_w + n_slack] = 1.0
    lower[c_w0] = -np.inf

    c = np.zeros(nv)
    c[c_s + target] = 1.0
    complements = np.column_stack([np.arange(t), np.arange(c_d, c_d + t)])
    return LinearProgram("min", c, a, ("=",) * rows, b, lower, upper,
                         complements=complements)


def _stage_rhs(frontier: Frontier, o: int) -> np.ndarray:
    """The right-hand side of DMU ``o``'s stage programs over ``frontier``,
    the only part that differs between DMUs."""
    ds = frontier.dataset
    return np.concatenate([ds.x[o], ds.y[o], [1.0], np.zeros(frontier.size)])


def derive_stage_program(first: LinearProgram, pinned: list[tuple[int, float]],
                         target: int) -> LinearProgram:
    """A later stage of the DMU whose stage-1 program is ``first``:
    minimize slack ``target`` with each ``(slack, value)`` of ``pinned``
    fixed exactly at that value.

    Each pinned slack is fixed at its earlier optimum, which the previous
    stage's point satisfies, so every stage is feasible.  Stages differ only
    in their objective and pins, so the matrix, right-hand side and pairs
    are shared with ``first``, not copied.
    """
    if target in {idx for idx, _ in pinned}:
        raise ValueError("stage target is already pinned")
    c_s = len(first.complements)  # the slacks follow the t lambdas
    c = np.zeros(first.n_vars)
    c[c_s + target] = 1.0
    lower, upper = first.lower.copy(), first.upper.copy()
    for slack_idx, value in pinned:
        lower[c_s + slack_idx] = upper[c_s + slack_idx] = value
    return replace(first, sense="min", c=c, lower=lower, upper=upper)


def closest_projection(frontier: Frontier, o: int, priority: PriorityRanking,
                       cfg: SolverConfig = SolverConfig()) -> Projection:
    """Lexicographically minimal slack vector and the target it induces.

    The target is unique: whichever optimal intensities/multipliers each
    stage solver happens to report, the slack optima are the same, and the
    target is the DMU moved by exactly those slacks (inputs down, outputs
    up).  Efficient DMUs short-circuit to a zero-slack projection.  An
    ``o`` that is not a DMU index raises as ``dmu_index`` does.

    The first call over ``frontier`` with a given first slack builds the
    stage-1 program, solves its root cold and keeps the program with that
    root's final basis on ``frontier``.  Every later call derives its
    stage-1 program from the kept one by this DMU's right-hand side and
    starts its root from the kept basis.  That start can move the last
    bits of the slacks and targets, so they depend on the first DMU
    projected over ``frontier`` and on no other call.  Each stage after the
    first is derived from the stage-1 program (only its objective and pins
    change) and starts its root from the previous stage's final basis.  A
    stage whose slack the previous stage's point holds at exactly 0 or
    below is not solved: no slack goes below its bound 0, so that point is
    its optimum, and the stage records it with value 0.
    """
    dataset = frontier.dataset
    m, s = dataset.m, dataset.s
    if priority.m != m or priority.s != s:
        raise ValueError("priority ranking dimensions do not match the dataset")
    o = dmu_index(dataset, o)
    name = dataset.names[o]
    xo, yo = dataset.x[o], dataset.y[o]

    if o in frontier:
        return Projection(o, xo.copy(), yo.copy(), np.zeros(m + s), (), priority)

    pinned: list[tuple[int, float]] = []
    stages: list[StageSolution] = []
    t = frontier.size
    n_slack = m + s
    c_s, c_w, c_w0, c_d = _layout(t, n_slack)
    target = priority.order[0]
    template = frontier.stage_templates.get(target)
    if template is None:
        first, start = build_stage_program(frontier, o, target), None
    else:
        first, start = replace(template[0], b=_stage_rhs(frontier, o)), template[1]
    sol = None

    for stage_no, slack_idx in enumerate(priority.order, start=1):
        # a previous point that holds this slack at its bound 0 meets every
        # pin and is optimal here too: that stage is recorded, not solved
        if sol is None or sol.x[c_s + slack_idx] > 0.0:
            lp = first if stage_no == 1 else derive_stage_program(first, pinned, slack_idx)
            # the frontier dominates every DMU, so each stage is feasible
            sol = require_optimal(
                solve_milp(lp, cfg, warm_start=start),
                f"projection of DMU {name!r} stage {stage_no} (slack {slack_idx})")
            if template is None and stage_no == 1:
                frontier.stage_templates[target] = first, sol.root_basis
            start = sol.basis

        value = max(float(sol.x[c_s + slack_idx]), 0.0)
        stages.append(StageSolution(
            stage=stage_no,
            slack_index=slack_idx,
            value=value,
            lambdas=sol.x[:t].copy(),
            slacks=np.maximum(sol.x[c_s:c_s + n_slack], 0.0),
            weights=sol.x[c_w:c_w + n_slack].copy(),
            intercept=float(sol.x[c_w0]),
            deviations=sol.x[c_d:c_d + t].copy(),
        ))
        pinned.append((slack_idx, value))

    # the final stage's joint solution is the projection: its slack vector
    # satisfies every pin and its intensities reproduce the target exactly.
    # A slack within the feasibility tolerance of the DMU's own value is
    # solver noise around a zero optimum and is reported as exactly 0.
    s_star = stages[-1].slacks.copy()
    s_star[s_star <= FEAS_TOL * (1.0 + np.abs(np.concatenate([xo, yo])))] = 0.0
    return Projection(o, xo - s_star[:m], yo + s_star[m:], s_star, tuple(stages), priority)
