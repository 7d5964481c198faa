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
on the right-hand side.  On first use with a given first slack, the
``Frontier`` builds the stage-1 program of its first DMU in dataset order
that is not a member, solves that program's LP relaxation cold and keeps
the program with the relaxation's optimal basis.  Every projection derives
its own program from it with ``dataclasses.replace`` by a new right-hand
side, and its stage-1 root re-optimizes from the kept basis, still dual
feasible, with the dual simplex instead of solving cold.  The kept pair
depends on the frontier alone, so a projection depends only on the
frontier, the DMU and the priority, never on which calls came before.
Within one DMU, stages 2..m+s-1 are derived from its stage-1 program the
same way: the same rows, a new objective and one more pin; stage m+s is
recorded, not derived (see below).  Every derived
program shares its parent's matrix, so a basis resumed across them keeps
its inverse.

The last stage is never solved.  With every slack but one pinned, two
feasible targets differ in one coordinate, so one dominates the other.  The
dominated one lies on a hyperplane with multipliers >= 1 that supports every
efficient DMU, and the dominating one, a convex combination of efficient
DMUs, would lie strictly beyond it.  So stage m+s has a single feasible
value, and the point of stage m+s-1, which meets every pin, holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import PriorityRanking
from .efficiency import Frontier, dmu_index
from .errors import require_optimal
from .solver import LinearProgram, SolverConfig, solve_lp, solve_milp
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
    Its objective is set, and ``target`` checked, by
    ``derive_stage_program`` with no pin, which builds the later stages from
    it the same way.  An ``o`` that is not a DMU index raises as
    ``dmu_index`` does; a ``target`` outside 0..m+s-1 raises ValueError.
    """
    m, s = frontier.dataset.m, frontier.dataset.s
    t = frontier.size
    o = dmu_index(frontier.dataset, o)
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

    complements = np.column_stack([np.arange(t), np.arange(c_d, c_d + t)])
    rows_and_bounds = LinearProgram("min", np.zeros(nv), a, ("=",) * rows, b, lower, upper,
                                    complements=complements)
    return derive_stage_program(rows_and_bounds, [], target)


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
    are shared with ``first``, not copied.  A target or pinned slack
    outside 0..m+s-1 raises ValueError.
    """
    if target in {idx for idx, _ in pinned}:
        raise ValueError("stage target is already pinned")
    c_s = len(first.complements)  # the slacks follow the t lambdas
    n_slack = (first.n_vars - 2 * c_s - 1) // 2  # m+s slacks and multipliers, 1 intercept
    if not all(0 <= k < n_slack for k in (target, *(idx for idx, _ in pinned))):
        raise ValueError(f"a target or pinned slack is not one of the {n_slack} slacks")
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

    Every call derives its stage-1 program by this DMU's right-hand side
    from the one ``frontier`` keeps for the first slack, that of its first
    non-member DMU, and starts the root from the kept basis of that
    program's LP relaxation.  Both depend on ``frontier`` alone, so the
    result, to the last bit, depends only on ``frontier``, ``o`` and
    ``priority``, not on earlier calls.  Each stage after the first is
    derived from the stage-1 program (only its objective and pins
    change) and starts its root from the previous stage's final basis.  A
    stage whose slack the previous stage's point holds at exactly 0 or
    below is not solved: no slack goes below its bound 0, so that point is
    its optimum, and the stage records it with value 0.  Nor is the last
    stage, m+s: its one free slack has a single feasible value (see the
    module docstring), so it records the previous stage's point and slack.
    At most m+s-1 stage MILPs are solved per DMU.
    """
    dataset = frontier.dataset
    m, s = dataset.m, dataset.s
    if priority.m != m or priority.s != s:
        raise ValueError("priority ranking dimensions do not match the dataset")
    o = dmu_index(dataset, o)
    xo, yo = dataset.x[o], dataset.y[o]

    if o in frontier:
        return Projection(o, xo.copy(), yo.copy(), np.zeros(m + s), (), priority)

    pinned: list[tuple[int, float]] = []
    stages: list[StageSolution] = []
    t = frontier.size
    n_slack = m + s
    c_s, c_w, c_w0, c_d = _layout(t, n_slack)
    target = priority.order[0]
    if target not in frontier.stage_templates:
        # the frontier's first non-member fixes the template, so it does not
        # depend on which DMU came first; the basis is None without an optimum
        outside = next(j for j in range(dataset.n) if j not in frontier)
        lp = build_stage_program(frontier, outside, target)
        frontier.stage_templates[target] = lp, solve_lp(replace(lp, complements=None), cfg).basis
    template, start = frontier.stage_templates[target]
    first = replace(template, b=_stage_rhs(frontier, o))
    sol = None

    for stage_no, slack_idx in enumerate(priority.order, start=1):
        # a previous point that holds this slack at its bound 0 meets every
        # pin and is optimal here too: that stage is recorded, not solved.
        # So is the last stage, whose one free slack has a single feasible
        # value, which the previous point holds
        if sol is None or (stage_no < n_slack and sol.x[c_s + slack_idx] > 0.0):
            lp = first if stage_no == 1 else derive_stage_program(first, pinned, slack_idx)
            # the frontier dominates every DMU, so each stage is feasible
            sol = require_optimal(
                solve_milp(lp, cfg, warm_start=start),
                f"projection of DMU {dataset.names[o]!r} stage {stage_no} (slack {slack_idx})")
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
