"""Two-phase BCC efficiency evaluation under variable returns to scale.

Phase 1 shrinks the radial input factor theta as far as the technology
allows; phase 2 pins theta at that optimum and maximizes the total slack.
Phase 2 is derived from the phase-1 program with ``dataclasses.replace``:
the same rows under a new objective and theta's pin.
A DMU is efficient exactly when theta is 1 and every slack is zero, which
realizes the non-Archimedean objective without ever instantiating an
epsilon coefficient.

Phase 2 is needed only when a slack can be positive on the phase-1 optimal
face (Ali & Seiford 1993).  When the phase-1 solve reports every slack
column as priced out, every phase-1 optimum has zero slacks, phase 2 could
not move the point, and the phase-1 point is the answer.  Otherwise phase 2
runs at once only where it can change the efficiency flag, at theta = 1
(within zero_tol).  A theta below that marks the DMU inefficient whatever
its slacks are, so there phase 2 is solved, from the same phase-1 basis,
when the result's slacks or lambdas are first read; the pipeline reads
neither.

``evaluate_all`` builds each DMU's phase-1 program, and each DMU's phase 1
starts from the last solved DMU's optimal phase-1 basis.  The programs
differ only in the theta column (-x_o) and in the right-hand side, so they
share no matrix, and each resumed basis is factorized afresh.  Of the price
equations B^T y = c_B only theta's changes; the others fix y up to scale,
and the scale stays positive while x_o.v > 0 for the input prices
v = -y_in >= 0.  Every reduced cost keeps its sign, so the dual simplex
resumes from a dual feasible basis; the first DMU starts at theta = 1,
lambda_o = 1.

Every optimal phase-1 basis prices a hyperplane that supports every DMU.
The DMUs whose lambda column it prices out lie strictly off it; where the
hyperplane passes through an efficient DMU, the maximal closest reference
set reads that mask to rule them out without solving an LP.  The DMUs whose
lambda column is basic lie on it.  When the solve also prices out every
slack column, every multiplier of the hyperplane is positive, and each DMU
on it is strongly efficient (early identification, Ali 1993): the
hyperplane, scaled by its input value, is a multiplier solution of that
DMU's own BCC program with value 1, and no slack can be positive on it.
``evaluate_all`` solves nothing for a later DMU so certified.  It reads
theta = 1 exactly, zero slacks and itself as its reference point; it has no
basis of its own and borrows the certifying solve's lambda mask, which
belongs to a hyperplane through it.

``efficient_set`` returns the efficient DMUs as a ``Frontier``, the one
record per dataset that the projection, reference-set and returns-to-scale
programs are built over.  It slices the efficient rows once and keeps the
stage-1 projection programs built over them, each with the root basis
every later stage 1 starts from.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .data import Dataset
from .errors import require_optimal
from .solver import Basis, LinearProgram, SolverConfig, solve_lp


@dataclass(frozen=True)
class EfficiencyResult:
    """BCC score and max-slack completion for one DMU.

    ``slacks`` holds the m input slacks followed by the s output slacks.
    ``lambdas`` is the intensity vector over the full dataset from the
    phase-2 solution, or from the phase-1 solution when the phase-1 prices
    rule out every slack (phase 2 would start and stop at that point).
    ``completion`` returns both; where theta alone marks the DMU
    inefficient, it solves phase 2, so the first read of either raises the
    error a failed phase 2 means.  ``priced_out`` flags the DMUs whose
    lambda column the optimal phase-1 basis prices out: they carry zero
    weight in every phase-1 optimum.

    A DMU that ``evaluate_all`` certifies from an earlier DMU's phase-1
    basis reads theta 1.0, zero slacks and lambdas e_o, and ``priced_out``
    is the certifying basis's mask: that basis prices a hyperplane through
    this DMU, and the mask never flags it.
    """

    dmu: int
    theta: float
    is_efficient: bool
    completion: Callable[[], tuple[np.ndarray, np.ndarray]] = field(repr=False, compare=False)
    priced_out: np.ndarray | None = field(default=None, repr=False, compare=False)

    @cached_property
    def _completed(self) -> tuple[np.ndarray, np.ndarray]:
        return self.completion()

    @property
    def slacks(self) -> np.ndarray:
        return self._completed[0]

    @property
    def lambdas(self) -> np.ndarray:
        return self._completed[1]


def dmu_index(dataset: Dataset, o) -> int:
    """``o`` as a DMU index of ``dataset`` by the rule ``Frontier`` applies
    to each of its indices: ``TypeError`` unless it is an integer,
    ``ValueError`` unless 0 <= o < n."""
    o = operator.index(o)
    if not 0 <= o < dataset.n:
        raise ValueError(f"DMU index {o} is not one of a dataset of {dataset.n} DMUs")
    return o


@dataclass(frozen=True, eq=False)
class Frontier:
    """The efficient set J_E of one dataset, which every closest projection,
    reference-set and returns-to-scale program of the paper is built over.

    ``indices`` are the efficient DMUs' dataset indices in dataset order;
    ``x`` (t, m) and ``y`` (t, s) are their rows, read-only, the only slice
    of them taken.  Construction raises ``ValueError`` for a negative,
    out-of-range, repeated or decreasing index and ``TypeError`` for one
    that is not an integer; an empty set is allowed.  ``stage_templates``
    holds, per first slack, the stage-1 program ``closest_projection``
    built for the first DMU it projected with that slack, with the final
    basis of that DMU's cold stage-1 root.  Every later projection derives
    its own program from it with ``dataclasses.replace`` by a new
    right-hand side, so they share one matrix, and starts its stage-1 root
    from that basis.  Equality is identity.
    """

    dataset: Dataset = field(repr=False)
    indices: tuple[int, ...]
    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)
    stage_templates: dict[int, tuple[LinearProgram, Basis]] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        idx = tuple(map(operator.index, self.indices))
        # each index lies at or above 0 and below the next one, the last below n
        if any(not 0 <= j < above for j, above in zip(idx, idx[1:] + (self.dataset.n,))):
            raise ValueError(f"frontier indices {idx} are not increasing DMU indices "
                             f"of a dataset of {self.dataset.n} DMUs")
        object.__setattr__(self, "indices", idx)
        for name in ("x", "y"):
            rows = getattr(self.dataset, name)[list(idx)]
            rows.setflags(write=False)
            object.__setattr__(self, name, rows)

    @property
    def size(self) -> int:
        return len(self.indices)

    def __contains__(self, o: int) -> bool:
        return o in self.indices


def _bcc_program(dataset: Dataset, o: int) -> LinearProgram:
    """Phase 1 of DMU ``o``: minimize theta >= 0 over variables
    [theta, lambda (n), s_in (m), s_out (s)] subject to

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
    c[0] = 1.0
    return LinearProgram("min", c, a, ("=",) * (m + s + 1), b, np.zeros(nv), np.full(nv, np.inf))


def _phase2_program(phase1: LinearProgram, n: int, theta: float) -> LinearProgram:
    """Phase 2 of the DMU whose phase-1 program over ``n`` DMUs is
    ``phase1``: maximize the total slack with theta pinned at ``theta``.
    The rows are shared with phase 1; only the objective and theta's bounds
    are new."""
    c = np.zeros(phase1.n_vars)
    c[1 + n:] = 1.0
    lower, upper = phase1.lower.copy(), phase1.upper.copy()
    lower[0] = upper[0] = theta
    return replace(phase1, sense="max", c=c, lower=lower, upper=upper)


def _unit_vertex(dataset: Dataset, o: int) -> Basis:
    """Phase-1 basis at theta = 1, lambda_o = 1.

    The basic columns are the slacks of their own rows, lambda_o in the
    convexity row, and theta in place of the slack of the input row with
    the largest x_io.  Up to row order the basis matrix is triangular with
    pivots +-1, 1 and -x_io, the largest theta can take, so it is
    nonsingular: a ``Dataset`` has a positive input in every row.
    """
    n, m, s = dataset.n, dataset.m, dataset.s
    columns = np.r_[1 + n + np.arange(m + s), 1 + o]
    columns[int(np.argmax(dataset.x[o]))] = 0
    return Basis(columns)


def evaluate_bcc(dataset: Dataset, o: int, cfg: SolverConfig = SolverConfig()) -> EfficiencyResult:
    """Radial score, max-slack completion, and efficiency flag for DMU ``o``.

    Phase 1 starts at the feasible vertex theta = 1, lambda_o = 1, which
    spares it an artificial phase.  Phase 2 of a DMU with theta below
    1 - zero_tol is solved when the result's slacks or lambdas are first
    read.  An ``o`` that is not a DMU index raises as ``dmu_index`` does.
    """
    return _solve_bcc(dataset, dmu_index(dataset, o), cfg, None)[0]


def _solve_bcc(dataset: Dataset, o: int, cfg: SolverConfig,
               start: Basis | None) -> tuple[EfficiencyResult, Basis, bool]:
    """``evaluate_bcc`` with phase 1 resuming from ``start``, another DMU's
    optimal phase-1 basis, where given; also the optimal phase-1 basis and
    whether it prices out every slack column.  The start never changes
    which points are optimal."""
    name = dataset.names[o]
    n, m, s = dataset.n, dataset.m, dataset.s
    lp1 = _bcc_program(dataset, o)

    # lambda_o = 1, theta = 1 is always feasible, and theta >= 0 bounds it
    phase1 = require_optimal(solve_lp(lp1, cfg, warm_start=start or _unit_vertex(dataset, o)),
                             f"BCC phase 1 for DMU {name!r}")
    theta = float(phase1.objective)

    # without an inverse the phase-1 solve prices nothing out
    priced_out = (phase1.priced_out if phase1.priced_out is not None
                  else np.zeros(lp1.n_vars, dtype=bool))
    slack_cols = slice(1 + n, 1 + n + m + s)
    slacks_priced_out = bool(priced_out[slack_cols].all())

    def phase2() -> tuple[np.ndarray, np.ndarray]:
        # same rows and columns with theta pinned at its optimum, so the
        # phase-1 basis stays feasible and phase 2 resumes from it
        lp2 = _phase2_program(lp1, n, theta)
        final = require_optimal(solve_lp(lp2, cfg, warm_start=phase1.basis),
                                f"BCC phase 2 for DMU {name!r}")
        return final.x[slack_cols].copy(), final.x[1: 1 + n].copy()

    if slacks_priced_out:
        completed = np.zeros(m + s), phase1.x[1: 1 + n].copy()  # phase 2 could not move the point
    elif theta < 1.0 - cfg.zero_tol:
        completed = None  # inefficient whatever the slacks; phase 2 waits for a reader
    else:
        completed = phase2()
    efficient = (completed is not None and theta >= 1.0 - cfg.zero_tol
                 and float(np.abs(completed[0]).max()) <= cfg.zero_tol)
    result = EfficiencyResult(o, theta, efficient,
                              phase2 if completed is None else lambda: completed,
                              priced_out[1: 1 + n])
    return result, phase1.basis, slacks_priced_out


def _certified(dataset: Dataset, o: int, priced_out: np.ndarray) -> EfficiencyResult:
    """DMU ``o`` proved strongly efficient by another DMU's optimal phase-1
    basis, whose lambda mask is ``priced_out``: theta = 1, no slack, and the
    DMU as its own reference point."""
    completed = np.zeros(dataset.m + dataset.s), (np.arange(dataset.n) == o).astype(float)
    return EfficiencyResult(o, 1.0, True, lambda: completed, priced_out)


def evaluate_all(dataset: Dataset, cfg: SolverConfig = SolverConfig()) -> list[EfficiencyResult]:
    """Every DMU in dataset order.  Each phase 1 after the first resumes
    from the last solved optimal phase-1 basis.  A DMU that an earlier such
    basis proves efficient is not solved."""
    n = dataset.n
    certifier: dict[int, np.ndarray] = {}  # DMU -> lambda mask of the basis that proves it
    results: list[EfficiencyResult] = []
    start = None
    for o in range(n):
        if o in certifier:
            results.append(_certified(dataset, o, certifier[o]))
            continue
        result, start, slacks_priced_out = _solve_bcc(dataset, o, cfg, start)
        results.append(result)
        if slacks_priced_out:
            # every later DMU whose lambda column is basic lies on the
            # supporting hyperplane, whose multipliers are all positive
            basic = start.columns - 1
            for j in basic[(basic > o) & (basic < n)]:
                certifier.setdefault(int(j), result.priced_out)
    return results


def efficient_set(dataset: Dataset, cfg: SolverConfig = SolverConfig()) -> Frontier:
    """Every efficient DMU, including non-extreme frontier members, as a
    ``Frontier``."""
    results = evaluate_all(dataset, cfg)
    return Frontier(dataset, tuple(r.dmu for r in results if r.is_efficient))
