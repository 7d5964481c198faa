"""Primal simplex for linear programs with explicit variable bounds.

Nonbasic variables rest at one of their finite bounds (or at zero when
free both ways), so finite upper bounds never materialize as constraint
rows; a step blocked by the entering variable's own opposite bound is a
bound flip that leaves the basis unchanged.  Phase 1 starts from a slack
basis: an inequality row whose own slack can absorb the row's residual at
the resting point starts with that slack basic, and only the remaining rows
get an artificial variable, so the starting basis is a signed identity and
exactly feasible for phase 1.  Pricing is
Dantzig's rule, switching permanently to Bland's rule after a run of
degenerate pivots so the solve cannot cycle.

The basic solution is recomputed from the basis factorization at every
iteration (no tableau updates), which keeps residual drift at machine
noise for the desk-scale systems this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import LinearProgram, Solution, SolveStatus, SolverConfig

# nonbasic/basic variable states
_AT_LOWER = 0
_AT_UPPER = 1
_FREE = 2
_BASIC = 3

_DEGEN_STEP = 1e-11
_RATIO_TIE = 1e-12
_PIVOT_FLOOR = 1e-7  # smallest pivot magnitude accepted while stable rows exist
_BOUND_TOL = 1e-7  # relative bound violation past which a final point is rejected


@dataclass
class StandardizedLP:
    """Equality-form system: ``a @ x = b`` with bounds, minimization.

    Columns 0..n_struct-1 are the original variables; the remainder are
    inequality slacks.  ``slack_of_row[i]`` is the column of row i's slack,
    or -1 for an equality row.  ``sense_sign`` is +1 when the original
    program was a minimization, -1 otherwise (objective values are mapped
    back on exit).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_struct: int
    sense_sign: float
    slack_of_row: np.ndarray


def standardize(lp: LinearProgram) -> StandardizedLP:
    """Append one slack column per inequality row and flip max to min."""
    n = lp.n_vars
    rows = lp.n_rows
    ineq = [i for i, rel in enumerate(lp.relations) if rel != "="]
    n_total = n + len(ineq)

    a = np.zeros((rows, n_total))
    a[:, :n] = lp.a
    slack_of_row = np.full(rows, -1)
    for k, i in enumerate(ineq):
        # a.x + s = b with s >= 0 for "<=", a.x - s = b for ">="
        a[i, n + k] = 1.0 if lp.relations[i] == "<=" else -1.0
        slack_of_row[i] = n + k

    sign = 1.0 if lp.sense == "min" else -1.0
    c = np.zeros(n_total)
    c[:n] = sign * lp.c
    lower = np.concatenate([lp.lower, np.zeros(len(ineq))])
    upper = np.concatenate([lp.upper, np.full(len(ineq), np.inf)])
    return StandardizedLP(a, lp.b.copy(), c, lower, upper, n, sign, slack_of_row)


def _resting_values(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial nonbasic state and value for every column: the finite lower
    bound if there is one, else the finite upper bound, else free at zero."""
    n = lower.size
    status = np.full(n, _FREE, dtype=np.int8)
    status[np.isfinite(upper)] = _AT_UPPER
    status[np.isfinite(lower)] = _AT_LOWER
    values = np.where(status == _AT_LOWER, lower, np.where(status == _AT_UPPER, upper, 0.0))
    return status, values


class _Simplex:
    """One solve over the standardized system; holds the mutable state."""

    def __init__(self, std: StandardizedLP, cfg: SolverConfig,
                 lower: np.ndarray | None = None, upper: np.ndarray | None = None):
        self.a = std.a
        self.b = std.b
        self.slack_of_row = std.slack_of_row
        self.cfg = cfg
        self.lower = std.lower if lower is None else lower
        self.upper = std.upper if upper is None else upper
        self.n = std.a.shape[1]
        self.rows = std.a.shape[0]
        self.iterations = 0
        self.bland = False
        self._degen_run = 0

    def run(self, c_struct: np.ndarray) -> tuple[SolveStatus, np.ndarray | None, np.ndarray | None]:
        """Two phases; returns (status, x, basis) over the standardized columns."""
        rows, n = self.rows, self.n
        if rows == 0:
            return self._run_unconstrained(c_struct)

        status, values = _resting_values(self.lower, self.upper)
        x0 = np.zeros(n)
        nb = status != _BASIC
        x0[nb] = values[nb]
        resid = self.b - self.a @ x0

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
        lo_ext = np.concatenate([self.lower, np.zeros(k)])
        up_ext = np.concatenate([self.upper, np.full(k, np.inf)])
        c1 = np.zeros(n + k)
        c1[n:] = 1.0
        basis = np.where(crash, col, 0)
        basis[need] = np.arange(n, n + k)
        vstatus = np.concatenate([status, np.full(k, _BASIC, dtype=np.int8)])
        vstatus[basis] = _BASIC

        state = (a_ext, lo_ext, up_ext, basis, vstatus)
        outcome, x = self._iterate(c1, *state)
        if outcome is not None:
            # phase 1 is bounded below by zero, so only the iteration limit can stop it
            return outcome, None, None
        infeas = x[n:].sum()
        if infeas > self.cfg.feas_tol * (1.0 + np.abs(self.b).max()) * 10.0:
            return SolveStatus.INFEASIBLE, None, None

        self._evict_artificials(a_ext, basis, vstatus, n)
        lo_ext[n:] = 0.0
        up_ext[n:] = 0.0  # artificials pinned; redundant rows keep theirs basic at zero

        c2 = np.concatenate([c_struct, np.zeros(k)])
        outcome, x = self._iterate(c2, *state)
        if outcome is not None:
            return outcome, None, None
        x = x[:n]
        below = x < self.lower - _BOUND_TOL * (1.0 + np.abs(self.lower))
        above = x > self.upper + _BOUND_TOL * (1.0 + np.abs(self.upper))
        if below.any() or above.any():
            # basis too ill-conditioned to hold its own bounds; not an optimum
            return SolveStatus.ITERATION_LIMIT, None, None
        return SolveStatus.OPTIMAL, x, basis.copy()

    def _run_unconstrained(self, c: np.ndarray):
        """No rows: each variable independently sits at its cheapest bound."""
        x = np.empty(self.n)
        for j in range(self.n):
            if c[j] > self.cfg.pivot_tol:
                x[j] = self.lower[j]
            elif c[j] < -self.cfg.pivot_tol:
                x[j] = self.upper[j]
            else:
                x[j] = self.lower[j] if np.isfinite(self.lower[j]) else min(0.0, self.upper[j])
            if not np.isfinite(x[j]):
                return SolveStatus.UNBOUNDED, None, None
        return SolveStatus.OPTIMAL, x, np.empty(0, dtype=int)

    def _evict_artificials(self, a_ext, basis, vstatus, n):
        """Pivot basic artificials onto structural columns where possible."""
        for r in range(self.rows):
            if basis[r] < n:
                continue
            b_mat = a_ext[:, basis]
            e_r = np.zeros(self.rows)
            e_r[r] = 1.0
            try:
                z = np.linalg.solve(b_mat.T, e_r)
            except np.linalg.LinAlgError:
                continue
            row_vals = z @ a_ext[:, :n]
            row_vals[vstatus[:n] == _BASIC] = 0.0
            j = int(np.argmax(np.abs(row_vals)))
            if abs(row_vals[j]) < _PIVOT_FLOOR:
                continue  # redundant row; the artificial stays basic at zero
            art = basis[r]
            basis[r] = j
            vstatus[j] = _BASIC
            vstatus[art] = _AT_LOWER

    def _iterate(self, c, a_ext, lo, up, basis, vstatus):
        """Pivot until optimal; returns (early_status_or_None, x)."""
        cfg = self.cfg
        ptol = cfg.pivot_tol
        n_ext = a_ext.shape[1]
        fixed = lo == up
        x = np.zeros(n_ext)
        a_abs = np.abs(a_ext)

        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return self._pivot_loop(c, a_ext, a_abs, lo, up, basis, vstatus, fixed, x, ptol, cfg)

    def _pivot_loop(self, c, a_ext, a_abs, lo, up, basis, vstatus, fixed, x, ptol, cfg):
        n_ext = a_ext.shape[1]
        while True:
            nb = vstatus != _BASIC
            x[nb] = np.where(vstatus[nb] == _AT_LOWER, lo[nb],
                             np.where(vstatus[nb] == _AT_UPPER, up[nb], 0.0))
            x[basis] = 0.0
            b_mat = a_ext[:, basis]
            rhs = self.b - a_ext @ x
            try:
                b_inv = np.linalg.inv(b_mat)
            except np.linalg.LinAlgError:
                return SolveStatus.ITERATION_LIMIT, None  # numerically singular basis
            x[basis] = b_inv @ rhs
            y = b_inv.T @ c[basis]
            if np.abs(b_mat @ x[basis] - rhs).max(initial=0.0) > 1e-6 * (1.0 + np.abs(rhs).max(initial=0.0)):
                return SolveStatus.ITERATION_LIMIT, None  # basis too ill-conditioned to trust
            d = c - a_ext.T @ y
            d[basis] = 0.0

            # reduced-cost noise grows with the dual magnitudes, so the zero
            # threshold is scaled per column; an absolute cutoff would let
            # noise-level "improvements" drive pivots on degenerate cones
            dtol = ptol * (1.0 + a_abs.T @ np.abs(y))
            elig = np.zeros(n_ext, dtype=bool)
            elig[(vstatus == _AT_LOWER) & (d < -dtol)] = True
            elig[(vstatus == _AT_UPPER) & (d > dtol)] = True
            elig[(vstatus == _FREE) & (np.abs(d) > dtol)] = True
            elig[fixed] = False
            if not elig.any():
                return None, x

            if self.iterations >= cfg.max_iterations:
                return SolveStatus.ITERATION_LIMIT, None
            self.iterations += 1

            # entering candidates in rule order; a candidate whose only blocking
            # pivots are numerically tiny is skipped (it is near-dependent on the
            # basis and would wreck the factorization), unless nothing else moves
            move = None
            banned = np.zeros(n_ext, dtype=bool)
            while True:
                cand = elig & ~banned
                if not cand.any():
                    break
                if self.bland:
                    q = int(np.flatnonzero(cand)[0])
                else:
                    score = np.where(cand, np.abs(d), -1.0)
                    q = int(np.argmax(score))
                if vstatus[q] == _AT_LOWER:
                    sigma = 1.0
                elif vstatus[q] == _AT_UPPER:
                    sigma = -1.0
                else:
                    sigma = 1.0 if d[q] < 0 else -1.0

                w = b_inv @ a_ext[:, q]
                delta = -sigma * w  # basic change per unit step of the entering variable

                xb = x[basis]
                t = np.full(self.rows, np.inf)
                pos = delta > ptol
                neg = delta < -ptol
                t[pos] = (up[basis[pos]] - xb[pos]) / delta[pos]
                t[neg] = (lo[basis[neg]] - xb[neg]) / delta[neg]
                t[np.isnan(t)] = np.inf
                np.maximum(t, 0.0, out=t)
                t_row = t.min() if self.rows else np.inf
                t_flip = up[q] - lo[q]

                if min(t_row, t_flip) == np.inf:
                    return SolveStatus.UNBOUNDED, None

                if t_flip <= t_row:
                    move = ("flip", q, sigma, t_flip)
                    break
                ties = np.flatnonzero(t <= t_row + _RATIO_TIE)
                if self.bland:
                    r = int(ties[np.argmin(basis[ties])])
                else:
                    r = int(ties[np.argmax(np.abs(delta[ties]))])
                stable = abs(delta[r]) >= _PIVOT_FLOOR * max(1.0, float(np.abs(delta).max()))
                if stable or self.bland:
                    move = ("pivot", q, r, delta[r], t_row)
                    break
                banned[q] = True

            if move is None:
                # only near-dependent candidates remain; their reduced costs are
                # at noise level relative to any stable pivot, so stop here
                return None, x

            if move[0] == "flip":
                _, q, sigma, step = move
                vstatus[q] = _AT_UPPER if sigma > 0 else _AT_LOWER
            else:
                _, q, r, delta_r, step = move
                leaving = basis[r]
                vstatus[leaving] = _AT_UPPER if delta_r > 0 else _AT_LOWER
                basis[r] = q
                vstatus[q] = _BASIC

            if step <= _DEGEN_STEP:
                self._degen_run += 1
                if self._degen_run > cfg.degen_limit:
                    self.bland = True
            else:
                self._degen_run = 0


def solve_standardized(std: StandardizedLP, cfg: SolverConfig,
                       lower: np.ndarray | None = None,
                       upper: np.ndarray | None = None,
                       ) -> tuple[SolveStatus, np.ndarray | None, float, int, np.ndarray | None]:
    """Solve the standardized system, optionally with full-length bound overrides.

    Branch-and-bound passes them to fix binaries and pair members without
    rebuilding the system.  Returns (status, structural x, objective in the
    min sense, iterations, basis).
    """
    sx = _Simplex(std, cfg, lower, upper)
    status, x, basis = sx.run(std.c)
    if status is not SolveStatus.OPTIMAL:
        return status, None, np.nan, sx.iterations, None
    obj = float(std.c[: std.n_struct] @ x[: std.n_struct])
    return status, x[: std.n_struct].copy(), obj, sx.iterations, basis


def solve_lp(lp: LinearProgram, cfg: SolverConfig = SolverConfig()) -> Solution:
    """Solve a linear program without binaries or complementarity pairs.

    Infeasibility and unboundedness are detected and reported as statuses;
    hitting ``max_iterations`` (cycling or severe ill-conditioning) is
    reported as ITERATION_LIMIT.  Dimension errors are raised when the
    ``LinearProgram`` itself is constructed, never here.
    """
    if lp.is_mixed:
        raise ValueError("program has binaries or complementarity pairs; use solve_milp")
    std = standardize(lp)
    status, x, obj, iters, basis = solve_standardized(std, cfg)
    if status is SolveStatus.OPTIMAL:
        return Solution(status, std.sense_sign * obj, x, iters, 0, basis)
    if status is SolveStatus.UNBOUNDED:
        return Solution(status, -std.sense_sign * np.inf, None, iters)
    return Solution(status, np.nan, None, iters)
