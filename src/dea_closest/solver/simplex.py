"""Bounded-variable simplex for linear programs, with warm starts.

Nonbasic variables rest at one of their finite bounds (or at zero when
free both ways), so finite upper bounds never materialize as constraint
rows; a step blocked by the entering variable's own opposite bound is a
bound flip that leaves the basis unchanged.

A cold solve runs two primal phases.  Phase 1 starts from a slack basis: an
inequality row whose own slack can absorb the row's residual at the resting
point starts with that slack basic, and only the remaining rows get an
artificial variable, so the starting basis is a signed identity and exactly
feasible for phase 1.  When every artificial starts at exactly zero (a
homogeneous system with every column resting at zero, such as the MCRS
support LP), that start already attains the phase-1 optimum: phase 1 takes
no pivot, and the artificials are evicted and phase 2 begins at once.

A warm solve resumes from the final basis of a related program with the same
rows and columns (a branch-and-bound parent, the previous lexicographic
stage, the first phase of a two-phase model), or from a basis named by hand
as ``Basis(columns)`` at a known basic feasible point (the BCC score starts
at theta=1, lambda_o=1 and each returns-to-scale intercept at a vertex with
at most one positive lambda, so none of them runs an artificial phase).
Each nonbasic column is placed by its old value against its new bounds, or,
in a basis named by hand, rests where its own bounds put it.
If the basic solution is then primal feasible, primal phase 2 runs alone;
if it is only dual feasible (a parent basis after one bound changed), a
bounded dual simplex (Koberstein 2005) restores primal feasibility first.  The dual leaves on the
largest bound violation and enters by the ratio test |d_j|/|alpha_rj|, ties
going to the largest |alpha_rj|.  It reports an infeasible program only when
the leaving row, read as a bound over the variable box, certifies it.
Whenever the warm path cannot certify its answer (neither feasibility holds,
a numerical guard fires, the budget runs out, or the primal finds no blocking
row, which the cold solve certifies as an unbounded ray on its own
factorization), the program is solved cold.
The start can still change the result where a cold solve stops early: a
warm start may finish where the cold solve hits a numerical guard or runs
out of iterations.

Pricing is Dantzig's rule in both directions, switching permanently to
Bland's rule after a run of degenerate pivots so that no solve can cycle.
The primal pivots on whatever row its ratio test picks; a basis that this
leaves too ill-conditioned to reproduce its right-hand side, or whose final
point breaks a bound, is reported as a solver limit, never as an optimum.

The inverse of the basis matrix is kept across pivots in product form
(Dantzig & Orchard-Hays 1954): each pivot applies a rank-one eta update, and
the inverse passes unchanged across bound flips, from the dual to the primal,
from phase 1 to phase 2 and, inside the ``Basis`` record, to the solve that
resumes from it.  The basic solution and the prices are recomputed from the
inverse at every iteration.  The inverse is factorized from scratch every
``_REFACTOR_PERIOD`` updates, whenever the residual guard fires on an
updated inverse, before an updated inverse certifies an unbounded ray or an
infeasible row, and before an optimal point is read off.  Every returned
point is therefore solved from a fresh factorization that passed the
residual guard, then refined by one step of iterative refinement before the
bound check.  The same fresh inverse prices the optimal basis once more to
report, by the pricing's own threshold, which columns it holds at a bound.

The programs are small, so a solve costs numpy calls more than arithmetic,
and what does not change is set up once.  Per solve: one ``_Box`` of the
bounds (fixed mask, free columns, resting table, nonbasic status) shared by
the dual and the primal loop; the dual loop computes the pricing threshold
only on its first iteration (the dual feasibility test) and its last
(handed on to the primal).  A resumed ``Basis`` names the standardized
matrix it was gathered from, so a solve over that same array (a
branch-and-bound node, or a program derived with ``dataclasses.replace``
from the one that produced the record) takes a copy of its inverse; a solve
over another array factorizes its basic columns afresh.  Per LP solve: one ``np.errstate`` context.  Per
branch-and-bound solve: the standardized system and its ``|a|``, the index arrays of the
branching rule and one ``np.errstate`` context for the whole tree; each
child's ``_Box`` is its parent's, patched at the fixed column.  None of this
changes an operation that decides a pivot or a reported value: states are
``np.intp`` so that gathers by them need no conversion, products with a
contiguous matrix call ``ndarray.dot`` (the BLAS routine ``@`` calls,
without its dispatch; a vector times a column slice stays ``@``, which the
two round differently), and a maximum is read at its ``argmax``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (DEGEN_LIMIT, FEAS_TOL, PIVOT_TOL, Basis, LinearProgram, Solution, SolveStatus,
                    SolverConfig)

# nonbasic/basic variable states
_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3

_DEGEN_STEP = 1e-11
_RATIO_TIE = 1e-12
_PIVOT_FLOOR = 1e-7  # smallest pivot that may move a basic artificial onto a structural column
_BOUND_TOL = 1e-7  # relative bound violation past which a final point is rejected
_REFACTOR_PERIOD = 32  # eta updates after which the basis inverse is factorized from scratch
# per state, the sign that turns a reduced cost into the gain of a step off the bound
_GAIN_SIGN = np.array([-1.0, 1.0, 0.0, 0.0])


@dataclass
class StandardizedLP:
    """Equality-form system: ``a @ x = b`` with bounds, minimization.

    Columns 0..n_struct-1 are the original variables; the remainder are
    inequality slacks.  ``slack_of_row[i]`` is the column of row i's slack,
    or -1 for an equality row.  ``sense_sign`` is +1 when the original
    program was a minimization, -1 otherwise (objective values are mapped
    back on exit).  ``a_abs`` is ``|a|``, which scales the pricing
    threshold; each system computes it from its own ``a`` on first use.
    A program of equality rows only shares its matrix (when C-contiguous),
    right-hand side and bounds with the system; nothing writes to them.

    ``standardize`` is the one way to make a system from a program, so the
    program's constructor has validated what the system holds.  A caller
    that solves many programs of one shape may keep such a system, derive
    each program's with ``dataclasses.replace`` and hand it to ``solve_lp``
    directly; a replaced ``a`` must have the same shape and the same slack
    columns.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_struct: int
    sense_sign: float
    slack_of_row: np.ndarray

    @cached_property
    def a_abs(self) -> np.ndarray:
        return np.abs(self.a)


def standardize(lp: LinearProgram) -> StandardizedLP:
    """Append one slack column per inequality row and flip max to min."""
    n = lp.n_vars
    rows = lp.n_rows
    ineq = [i for i, rel in enumerate(lp.relations) if rel != "="]
    sign = 1.0 if lp.sense == "min" else -1.0
    slack_of_row = np.full(rows, -1)
    if not ineq:  # the program's own arrays, contiguous as BLAS calls expect them
        a = np.ascontiguousarray(lp.a)
        return StandardizedLP(a, lp.b, sign * lp.c, lp.lower, lp.upper, n, sign, slack_of_row)

    n_total = n + len(ineq)
    a = np.zeros((rows, n_total))
    a[:, :n] = lp.a
    for k, i in enumerate(ineq):
        # a.x + s = b with s >= 0 for "<=", a.x - s = b for ">="
        a[i, n + k] = 1.0 if lp.relations[i] == "<=" else -1.0
        slack_of_row[i] = n + k

    c = np.zeros(n_total)
    c[:n] = sign * lp.c
    lower = np.concatenate([lp.lower, np.zeros(len(ineq))])
    upper = np.concatenate([lp.upper, np.full(len(ineq), np.inf)])
    return StandardizedLP(a, lp.b, c, lower, upper, n, sign, slack_of_row)


def _nonbasic_status(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Where each column rests while nonbasic, by its bounds alone: at the
    finite lower bound if there is one (a fixed column's, whose pin is
    finite), else at the finite upper bound, else free at zero.

    States are ``np.intp``, the index type numpy gathers by without a
    conversion.
    """
    status = np.empty(lower.size, dtype=np.intp)
    status.fill(_FREE)
    status[np.isfinite(upper)] = _AT_UPPER
    status[np.isfinite(lower)] = _AT_LOWER
    return status


def _placed(status: np.ndarray, lower: np.ndarray, upper: np.ndarray,
            x: np.ndarray) -> np.ndarray:
    """``status`` with every column that ``x`` (a previous solve's point)
    holds at one of its bounds put at that bound; a fixed column stays at its
    lower bound.

    Placing a column by its value rather than by its old state matters when
    bounds change between solves: a column that branching pinned at zero may
    have rested "at upper" then, which would read as its old upper bound
    once the pin is gone.
    """
    status = status.copy()
    status[x == upper] = _AT_UPPER
    status[x == lower] = _AT_LOWER
    return status


def _max_abs(v: np.ndarray):
    """Largest |v_i|, 0 for an empty ``v`` (cheaper than ``np.abs(v).max()``)."""
    if not v.size:
        return 0.0
    v = np.abs(v)
    return v[v.argmax()]


class _Box:
    """The bounds of one system's columns and the tables read off them.

    Built once per solve (and per phase of a cold solve, whose artificial
    columns are pinned after phase 1), or patched from a branch-and-bound
    parent's, which the patch leaves as it was; every loop of the solve
    reads it, and only a cold solve's ``pin_at_zero`` writes to one, its
    own extended table.
    ``rest[state, j]`` is where column j sits in that state: at its lower or
    upper bound, else at zero (free, or basic and not yet solved for);
    ``lo`` and ``up`` are its first two rows.  ``status`` is where each
    column rests while nonbasic; ``free`` lists the columns with no finite
    bound, which are only ever nonbasic at zero or basic.
    """

    __slots__ = ("lo", "up", "fixed", "status", "free", "rest")

    def __init__(self, lo: np.ndarray, up: np.ndarray):
        self.rest = np.zeros((4, lo.size))
        self.rest[_AT_LOWER] = lo
        self.rest[_AT_UPPER] = up
        self.lo, self.up = self.rest[_AT_LOWER], self.rest[_AT_UPPER]
        self.fixed = lo == up
        self.status = _nonbasic_status(lo, up)
        self.free = (self.status == _FREE).nonzero()[0]

    def fixed_at(self, j: int, value: float) -> _Box:
        """A new table for these bounds with column ``j`` fixed at
        ``value``: this one's arrays, copied and changed at column j alone."""
        box = object.__new__(_Box)
        box.rest = self.rest.copy()
        box.lo, box.up = box.rest[_AT_LOWER], box.rest[_AT_UPPER]
        box.lo[j] = box.up[j] = value
        box.fixed = self.fixed.copy()
        box.fixed[j] = True
        box.status = self.status.copy()
        box.status[j] = _AT_LOWER
        box.free = self.free[self.free != j] if self.status[j] == _FREE else self.free
        return box

    def pin_at_zero(self, first: int):
        """Fix columns ``first`` onward at zero."""
        self.lo[first:] = 0.0
        self.up[first:] = 0.0
        self.fixed[first:] = True


def _reduced_costs(b_inv, c, a, basis):
    """Reduced costs and prices y at the basis whose inverse is ``b_inv``."""
    y = b_inv.T.dot(c[basis])
    d = c - a.T.dot(y)
    d[basis] = 0.0
    return d, y


def _zero_threshold(a_abs, y):
    """Per-column threshold below which a reduced cost counts as zero.

    Reduced-cost noise grows with the dual magnitudes, so the threshold is
    scaled per column; an absolute cutoff would let noise-level
    "improvements" drive pivots on degenerate cones.
    """
    return PIVOT_TOL * (1.0 + a_abs.T.dot(np.abs(y)))


class _Simplex:
    """One solve over the standardized system; holds the mutable state."""

    def __init__(self, std: StandardizedLP, cfg: SolverConfig, box: _Box | None = None):
        self.a = std.a
        self.a_abs = std.a_abs
        self.b = std.b
        self.slack_of_row = std.slack_of_row
        self.cfg = cfg
        self.box = _Box(std.lower, std.upper) if box is None else box
        self.n = std.a.shape[1]
        self.rows = std.a.shape[0]
        self._cols = np.arange(self.n + self.rows)  # column indices, artificials included
        self.iterations = 0
        self.b_inv: np.ndarray | None = None  # inverse of the current basis matrix; None if singular
        self.updates = 0  # eta updates applied to b_inv since its last factorization
        self._priced = None  # (x, d, dtol) the dual simplex hands on to the primal
        self._restart()

    def _restart(self):
        """Fresh pricing state and pivot budget for one attempt at the solve."""
        self.bland = False
        self._degen_run = 0
        self._limit = self.iterations + self.cfg.max_iterations

    def run(self, c_struct: np.ndarray, start: Basis | None = None
            ) -> tuple[SolveStatus, np.ndarray | None, np.ndarray | None]:
        """Returns (status, x, basis) over the standardized columns."""
        if start is not None:
            result = self._run_warm(c_struct, start)
            if result is not None:
                return result
            self._restart()  # pivots of the abandoned attempt stay counted
        return self._run_cold(c_struct)

    def _run_cold(self, c_struct: np.ndarray):
        """Two phases from the slack basis."""
        rows, n, box = self.rows, self.n, self.box
        resid = self.b - self.a.dot(box.rest[box.status, self._cols[:n]])

        # phase 1 starts from a slack basis: a row whose slack (coefficient
        # +-1, resting at 0, bounds [0, inf)) can take up the residual starts
        # with that slack basic; every other row gets an artificial, signed so
        # its basic value is >= 0
        slack = self.slack_of_row
        has_slack = slack >= 0
        col = np.where(has_slack, slack, 0)
        crash = has_slack & (resid * self.a[np.arange(rows), col] >= 0)
        need = np.flatnonzero(~crash)
        k = need.size
        art = np.zeros((rows, k))
        art[need, np.arange(k)] = np.where(resid[need] >= 0, 1.0, -1.0)
        a_ext = np.hstack([self.a, art])
        a_abs = np.abs(a_ext)
        ext = _Box(np.concatenate([box.lo, np.zeros(k)]),
                   np.concatenate([box.up, np.full(k, np.inf)]))
        c1 = np.zeros(n + k)
        c1[n:] = 1.0
        basis = np.where(crash, col, 0)
        basis[need] = np.arange(n, n + k)
        vstatus = np.concatenate([box.status, np.full(k, _BASIC, dtype=np.intp)])
        vstatus[basis] = _BASIC
        # a signed identity is its own inverse; the gathered matrix's memory
        # order decides how BLAS rounds products with it
        self.b_inv, self.updates = a_ext[:, basis], 0

        state = (a_ext, a_abs, ext, basis, vstatus)
        if np.any(resid[need] != 0.0):  # otherwise phase 1 starts at its optimum, zero
            outcome, x = self._iterate(c1, *state)
            if outcome is not None:
                # phase 1 is bounded below by zero, so only the iteration limit can stop it
                return outcome, None, None
            if x[n:].sum() > self._infeasibility_cut():
                return SolveStatus.INFEASIBLE, None, None

        self._evict_artificials(a_ext, basis, vstatus, n)
        ext.pin_at_zero(n)  # artificials pinned; redundant rows keep theirs basic at zero

        c2 = np.concatenate([c_struct, np.zeros(k)])
        outcome, x = self._iterate(c2, *state)
        if outcome is not None:
            return outcome, None, None
        x = x[:n]
        if not self._holds_bounds(x):
            # basis too ill-conditioned to hold its own bounds; not an optimum
            return SolveStatus.ITERATION_LIMIT, None, None
        return SolveStatus.OPTIMAL, x, basis.copy()

    def _run_warm(self, c: np.ndarray, start: Basis):
        """Resume from a previous basis; None when the answer cannot be
        certified this way and the program must be solved cold."""
        n = self.n
        basis = np.array(start.columns, dtype=np.intp)
        # read as unsigned, a negative column is past every column of the system
        if ((start.x is not None and start.x.size != n) or basis.size != self.rows
                or basis.view(np.uintp).max(initial=0) >= n):
            return None  # another system's basis, or one holding an artificial
        box = self.box
        vstatus = (box.status.copy() if start.x is None
                   else _placed(box.status, box.lo, box.up, start.x))
        vstatus[basis] = _BASIC
        if start.inverse is not None and start.source is self.a:
            # gathered from this very matrix, so it holds these basic columns;
            # the record is shared, so never update its inverse
            self.b_inv, self.updates = start.inverse.copy(), 0
        else:
            self._refactor(self.a[:, basis])

        outcome = self._dual_loop(c, basis, vstatus)
        if outcome is SolveStatus.INFEASIBLE:
            return outcome, None, None
        if outcome is not None:
            return None
        outcome, x = self._iterate(c, self.a, self.a_abs, self.box, basis, vstatus)
        if outcome is not None or not self._holds_bounds(x):
            return None
        return SolveStatus.OPTIMAL, x, basis

    def _infeasibility_cut(self) -> float:
        """Phase-1 infeasibility below which a program counts as feasible."""
        return FEAS_TOL * (1.0 + np.abs(self.b).max(initial=0.0))

    def _holds_bounds(self, x: np.ndarray) -> bool:
        """Whether ``x`` lies within ``_BOUND_TOL`` (relative) of every bound."""
        bounds = self.box.rest[:2]  # the lower and the upper bounds
        room = _BOUND_TOL * (1.0 + np.abs(bounds))
        # written so that a NaN entry fails the check
        return bool(((x >= bounds[0] - room[0]) & (x <= bounds[1] + room[1])).all())

    def _evict_artificials(self, a_ext, basis, vstatus, n):
        """Pivot basic artificials onto structural columns where possible."""
        for r in range(self.rows):
            if basis[r] < n or self.b_inv is None:
                continue
            row_vals = self.b_inv[r] @ a_ext[:, :n]  # row r of the tableau
            row_vals[vstatus[:n] == _BASIC] = 0.0
            j = int(np.argmax(np.abs(row_vals)))
            if abs(row_vals[j]) < _PIVOT_FLOOR:
                continue  # redundant row; the artificial stays basic at zero
            vstatus[basis[r]] = _AT_LOWER
            vstatus[j] = _BASIC
            self._exchange(a_ext, basis, r, j, self.b_inv.dot(a_ext[:, j]))

    def _refactor(self, b_mat: np.ndarray):
        """Invert the basis matrix from scratch."""
        try:
            self.b_inv = np.linalg.inv(b_mat)
        except np.linalg.LinAlgError:
            self.b_inv = None
        self.updates = 0

    def _exchange(self, a_ext, basis, r, q, col):
        """Make column ``q`` basic in row ``r``; ``col`` is B^-1 a_q.

        The inverse takes the product-form update B'^-1 = E B^-1, where the
        eta matrix E differs from the identity in column r only, or is
        factorized afresh once the updates reach ``_REFACTOR_PERIOD``.
        """
        basis[r] = q
        if self.updates + 1 >= _REFACTOR_PERIOD:
            self._refactor(a_ext[:, basis])
            return
        row = self.b_inv[r] / col[r]
        self.b_inv -= col[:, None] * row
        self.b_inv[r] = row
        self.updates += 1

    def _basic_solution(self, a_ext, box, basis, vstatus) -> np.ndarray | None:
        """The point of the current basis: nonbasic columns at their resting
        values, basic ones solved for with the current inverse.

        None when the basis is numerically singular or too ill-conditioned
        to reproduce its own right-hand side.  Only a fresh factorization is
        judged so: when the residual guard fires on an updated inverse, the
        basis is factorized again and solved anew.
        """
        x = box.rest[vstatus, self._cols[:vstatus.size]]  # zero at the basic columns
        rhs = self.b - a_ext.dot(x)
        tol = 1e-6 * (1.0 + _max_abs(rhs))
        while self.b_inv is not None:
            x[basis] = self.b_inv.dot(rhs)
            if _max_abs(a_ext.dot(x) - self.b) <= tol:  # False for a NaN residual
                return x
            if not self.updates:
                break
            self._refactor(a_ext[:, basis])
        return None

    @staticmethod
    def _improving(d, dtol, vstatus, box) -> np.ndarray:
        """Nonbasic columns whose reduced cost would lower the objective."""
        gain = d * _GAIN_SIGN[vstatus]
        if box.free.size:  # nonbasic at zero, or basic with d = 0
            gain[box.free] = np.abs(d[box.free])
        gain[box.fixed] = 0.0
        return gain > dtol

    def _count_step(self, step: float):
        """Book one pivot of length ``step``; a long enough run of degenerate
        ones switches pricing to Bland's rule for the rest of the attempt."""
        if step <= _DEGEN_STEP:
            self._degen_run += 1
            if self._degen_run > DEGEN_LIMIT:
                self.bland = True
        else:
            self._degen_run = 0

    def _iterate(self, c, a_ext, a_abs, box, basis, vstatus):
        """Primal simplex until optimal; returns (early_status_or_None, x)."""
        lo, up = box.lo, box.up
        # the dual simplex hands on the point and prices of its final basis
        x, d, dtol = self._priced or (None, None, None)
        self._priced = None
        while True:
            if x is None:
                x = self._basic_solution(a_ext, box, basis, vstatus)
                if x is None:
                    return SolveStatus.ITERATION_LIMIT, None  # basis singular or untrustworthy
                d, y = _reduced_costs(self.b_inv, c, a_ext, basis)
                dtol = _zero_threshold(a_abs, y)
            elig = self._improving(d, dtol, vstatus, box)
            if not elig.any():
                if self.updates:  # the optimal point is read from a fresh factorization
                    self._refactor(a_ext[:, basis])
                    x = self._basic_solution(a_ext, box, basis, vstatus)
                    if x is None:
                        return SolveStatus.ITERATION_LIMIT, None
                x[basis] += self.b_inv.dot(self.b - a_ext.dot(x))  # one step of iterative refinement
                return None, x

            if self.iterations >= self._limit:
                return SolveStatus.ITERATION_LIMIT, None

            if self.bland:
                q = int(elig.argmax())  # the first eligible column
            else:
                q = int(np.where(elig, np.abs(d), -1.0).argmax())
            if vstatus[q] == _AT_LOWER:
                sigma = 1.0
            elif vstatus[q] == _AT_UPPER:
                sigma = -1.0
            else:
                sigma = 1.0 if d[q] < 0 else -1.0
            col = self.b_inv.dot(a_ext[:, q])
            delta = -sigma * col  # basic change per unit step of the entering variable

            # steps to the bound each basic variable moves toward: the upper
            # one (resting row _AT_UPPER = 1) where it rises, else the lower
            t = (box.rest[(delta > 0.0).astype(np.intp), basis] - x[basis]) / delta
            t[np.abs(delta) <= PIVOT_TOL] = np.inf
            t[np.isnan(t)] = np.inf
            np.maximum(t, 0.0, out=t)
            t_row = t[t.argmin()] if t.size else np.inf
            t_flip = up[q] - lo[q]

            x = None  # priced afresh after the step
            if min(t_row, t_flip) == np.inf:
                if self.updates:  # an unbounded ray is certified on a fresh factorization only
                    self._refactor(a_ext[:, basis])
                    continue
                self.iterations += 1
                return SolveStatus.UNBOUNDED, None
            self.iterations += 1

            if t_flip <= t_row:
                vstatus[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
                self._count_step(t_flip)
                continue
            ties = (t <= t_row + _RATIO_TIE).nonzero()[0]
            if self.bland:
                r = int(ties[basis[ties].argmin()])
            else:
                r = int(ties[np.abs(delta[ties]).argmax()])
            vstatus[basis[r]] = _AT_UPPER if delta[r] > 0 else _AT_LOWER
            vstatus[q] = _BASIC
            self._exchange(a_ext, basis, r, q, col)
            self._count_step(t_row)

    def _dual_loop(self, c, basis, vstatus):
        """Bounded dual simplex over the standardized system until the basic
        solution holds its bounds.

        Returns None once it does, INFEASIBLE when a leaving row certifies
        that no point of the variable box satisfies it, and ITERATION_LIMIT
        when the basis cannot be resumed: it starts dual infeasible, a
        numerical guard fires, a row admits no entering column without
        certifying infeasibility, or the budget runs out.  The pricing
        threshold is read only on entry (dual feasibility) and on exit
        (handed on to the primal), so only those iterations compute it.
        """
        a, box = self.a, self.box
        lo, up = box.lo, box.up
        first = True
        while True:
            x = self._basic_solution(a, box, basis, vstatus)
            if x is None:
                return SolveStatus.ITERATION_LIMIT
            d, y = _reduced_costs(self.b_inv, c, a, basis)
            xb = x[basis]
            below = lo[basis] - xb
            above = xb - up[basis]
            excess = np.maximum(below, above)
            violated = excess > FEAS_TOL * (1.0 + np.abs(xb))
            if not violated.any():
                self._priced = x, d, _zero_threshold(self.a_abs, y)
                return None
            if first and self._improving(d, _zero_threshold(self.a_abs, y), vstatus, box).any():
                return SolveStatus.ITERATION_LIMIT  # neither primal nor dual feasible
            first = False
            if self.iterations >= self._limit:
                return SolveStatus.ITERATION_LIMIT

            if self.bland:
                rows = violated.nonzero()[0]
                r = int(rows[basis[rows].argmin()])
            else:
                r = int(np.where(violated, excess, -np.inf).argmax())
            raise_r = below[r] > above[r]  # the leaving variable climbs to its lower bound

            # row r of the tableau: x_r = beta_r - sum over nonbasic j of alpha_j x_j
            b_inv = self.b_inv
            alpha = b_inv[r].dot(a)
            alpha[basis] = 0.0
            cand = self._improving(alpha if raise_r else -alpha, PIVOT_TOL, vstatus, box)
            if not cand.any():
                if self.updates:  # a row is read as a certificate on a fresh factorization only
                    self._refactor(a[:, basis])
                    continue
                return (SolveStatus.INFEASIBLE if self._row_certifies(b_inv[r], alpha, basis[r], raise_r)
                        else SolveStatus.ITERATION_LIMIT)

            ratio = np.where(cand, np.abs(d / alpha), np.inf)  # |d_j| / |alpha_j|, exactly
            step = ratio[ratio.argmin()]
            ties = (ratio <= step + _RATIO_TIE).nonzero()[0]
            q = int(ties[0] if self.bland else ties[np.abs(alpha[ties]).argmax()])

            self.iterations += 1
            vstatus[basis[r]] = _AT_LOWER if raise_r else _AT_UPPER
            vstatus[q] = _BASIC
            self._exchange(a, basis, r, q, b_inv.dot(a[:, q]))
            self._count_step(step)

    def _row_certifies(self, z: np.ndarray, alpha: np.ndarray, leaving: int, raise_r: bool) -> bool:
        """Whether the tableau row ``x_r = z.b - alpha.x_N`` keeps the basic
        variable of that row short of its violated bound over the whole
        variable box, by more than the phase-1 infeasibility cut."""
        lo, up = self.box.lo, self.box.up
        nz = alpha != 0.0
        at_lo, at_up = alpha[nz] * lo[nz], alpha[nz] * up[nz]
        beta = float(z @ self.b)
        cut = self._infeasibility_cut()
        if raise_r:  # the most x_r can reach, against its lower bound
            return beta - np.minimum(at_lo, at_up).sum() < lo[leaving] - cut
        return beta - np.maximum(at_lo, at_up).sum() > up[leaving] + cut


def quiet() -> np.errstate:
    """The floating-point error state solves run under: a division by zero,
    an overflow or a NaN in a ratio test or a residual is read by the
    guards that follow it, not reported by numpy."""
    return np.errstate(invalid="ignore", divide="ignore", over="ignore")


def solve_standardized(std: StandardizedLP, cfg: SolverConfig, start: Basis | None = None,
                       box: _Box | None = None,
                       ) -> tuple[SolveStatus, np.ndarray | None, float, int, Basis | None]:
    """Solve the standardized system, optionally under another bound table.

    Branch-and-bound passes ``box``, the node's bound table patched from
    the parent node's, to fix pair members without rebuilding the system; without it the solve builds the table of the system's own
    bounds.  ``start`` is the final basis of a related solve over the same
    system; the solve resumes from it where it can and solves cold
    otherwise.  The caller runs the solve under ``quiet()``.  Returns
    (status, structural x, objective in the min sense, iterations, final
    basis).
    """
    sx = _Simplex(std, cfg, box)
    status, x, basis = sx.run(std.c, start)
    if status is not SolveStatus.OPTIMAL:
        return status, None, np.nan, sx.iterations, None
    x_struct = x[: std.n_struct]
    obj = float(std.c[: std.n_struct].dot(x_struct))
    if basis.max(initial=-1) < sx.n:
        # no artificial left basic: hand on the inverse the point was read with
        record = Basis(basis, x, inverse=sx.b_inv, source=std.a)
    else:
        record = Basis(basis, x)
    return status, x_struct.copy(), obj, sx.iterations, record


def _priced_out(std: StandardizedLP, record: Basis) -> np.ndarray | None:
    """Which structural columns an optimal ``record`` prices out: those whose
    reduced cost holds them at the bound they rest on by more than the
    pricing threshold, the mirror of ``_Simplex._improving``.  A basic
    column's reduced cost is zero and a free column rests on no bound, so
    neither counts; a fixed column rests at its lower bound.  None when the
    record carries no inverse (an artificial stayed basic)."""
    if record.inverse is None:
        return None
    d, y = _reduced_costs(record.inverse, std.c, std.a, record.columns)
    dtol = _zero_threshold(std.a_abs, y)
    lo, up = std.lower, std.upper
    state = _placed(_nonbasic_status(lo, up), lo, up, record.x)
    return (-d * _GAIN_SIGN[state] > dtol)[: std.n_struct]


def check_warm_start(warm_start) -> None:
    """Reject a warm start that is not a Basis (or None)."""
    if warm_start is not None and not isinstance(warm_start, Basis):
        raise TypeError("warm_start must be a Basis (such as an earlier solve's "
                        f"Solution.basis), not {type(warm_start).__name__}")


def solve_lp(lp: LinearProgram | StandardizedLP, cfg: SolverConfig = SolverConfig(),
             warm_start: Basis | None = None) -> Solution:
    """Solve a linear program without complementarity pairs.

    ``lp`` is a ``LinearProgram``, or a ``StandardizedLP`` derived from the
    ``standardize`` of one, which is solved as it stands: a replaced ``a``
    must have the same shape and the same slack columns.  The solution and
    its objective are those of the original program either way.

    ``warm_start`` is a basis of a program with the same rows and columns:
    the ``basis`` of an earlier solve (for instance the same model under
    other bounds or another objective), or a basis named by hand as
    ``Basis(columns)``, whose nonbasic columns rest where their own bounds
    put them.  The solve starts from it; it never changes which solutions
    are optimal.

    Infeasibility and unboundedness are detected and reported as statuses;
    hitting ``max_iterations`` (cycling or severe ill-conditioning) is
    reported as ITERATION_LIMIT.  Dimension errors are raised when the
    ``LinearProgram`` itself is constructed, never here; a ``warm_start``
    that is not a Basis raises TypeError.
    """
    if isinstance(lp, StandardizedLP):
        std = lp
    elif lp.is_mixed:
        raise ValueError("program has complementarity pairs; use solve_milp")
    else:
        std = standardize(lp)
    check_warm_start(warm_start)
    with quiet():
        status, x, obj, iters, basis = solve_standardized(std, cfg, start=warm_start)
    if status is SolveStatus.OPTIMAL:
        return Solution(status, std.sense_sign * obj, x, iters, 0, basis,
                        priced_out=_priced_out(std, basis))
    if status is SolveStatus.UNBOUNDED:
        return Solution(status, -std.sense_sign * np.inf, None, iters)
    return Solution(status, np.nan, None, iters)
