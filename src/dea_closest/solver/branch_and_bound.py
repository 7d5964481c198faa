"""Exhaustive branch and bound over complementarity pairs.

A node is split by pinning bounds on the shared standardized system (the
matrix is built once per program): a complementarity pair ``(a, b)`` with
both members positive gets ``x_a = 0`` in one child and ``x_b = 0`` in the
other (SOS1-style branching, Beale & Tomlin 1970).  Search is depth-first,
diving first into the child the relaxation already leans toward, and
prunes on infeasibility and on relaxation objectives that cannot beat the
incumbent.  A child's relaxation is never better than its
parent's, so each stacked child carries its parent's objective as a bound:
a child whose inherited bound no longer beats the incumbent (one found
after the child was stacked, typically by its sibling's dive) is discarded
without being solved.

Every node carries its parent's final basis and bound table.  A child
differs from its parent in one bound, so its bound table is the parent's
patched at that column, and the parent's basis stays dual feasible: the
simplex resumes from it with a few dual pivots instead of a cold two-phase
solve; the root starts from a caller-supplied basis (the previous
lexicographic stage's, or that of the LP relaxation of a program that
differs only in its right-hand side).  The incumbent always starts empty.
With the deterministic simplex underneath, identical programs always
produce identical solutions.
"""

from __future__ import annotations

import numpy as np

from .model import FEAS_TOL, Basis, LinearProgram, Solution, SolveStatus, SolverConfig
from .simplex import _Box, check_warm_start, quiet, solve_lp, solve_standardized, standardize


def _branching(lp: LinearProgram):
    """The branching rule of ``lp``: a function that maps a node's point
    ``x`` to the bound-fix alternatives ``(column, value)`` that split it,
    the preferred one last, or () when ``x`` needs no branching.

    The pair with the largest product is split, zeroing its smaller member
    first.  ``lp`` has at least one pair; the index arrays are taken from it
    once, not per node.
    """
    first, second = lp.complements[:, 0].copy(), lp.complements[:, 1].copy()

    def split(x: np.ndarray) -> tuple[tuple[int, float], ...]:
        xa, xb = x[first], x[second]
        violated = np.minimum(xa, xb) > 10.0 * FEAS_TOL  # a smaller member below this is zero
        k = int(np.where(violated, xa * xb, -np.inf).argmax())
        if not violated[k]:
            return ()
        a, b = int(first[k]), int(second[k])
        small, large = (a, b) if xa[k] <= xb[k] else (b, a)
        return (large, 0.0), (small, 0.0)

    return split


def solve_milp(lp: LinearProgram, cfg: SolverConfig = SolverConfig(),
               warm_start: Basis | None = None) -> Solution:
    """Solve a program with complementarity pairs to proven optimality.

    ``warm_start`` is a basis of a program with the same rows and columns
    (the ``basis`` of the previous stage of a lexicographic sequence, or
    that of the LP relaxation of a program that differs only in ``b``); the
    root relaxation starts from it.  It seeds no incumbent and never changes
    which solutions are optimal.

    A child whose parent's relaxation objective cannot beat the incumbent
    is discarded before it is solved; only solved relaxations count as
    nodes.  An unbounded relaxation is reported as UNBOUNDED; exhausting
    ``cfg.max_nodes`` returns NODE_LIMIT with the best incumbent found so
    far, if any.  The returned ``basis`` is that of the node that found the
    incumbent.  A ``warm_start`` that is not a Basis raises TypeError.
    """
    check_warm_start(warm_start)
    if not lp.is_mixed:
        return solve_lp(lp, cfg, warm_start)

    std = standardize(lp)
    branching = _branching(lp)
    inc_x: np.ndarray | None = None
    inc_obj = np.inf
    inc_basis: Basis | None = None
    cutoff = np.inf  # a bound at or above this cannot improve on the incumbent

    # each entry: the node's bound table, the parent's relaxation objective
    # (a lower bound on the node's) and the parent's final basis to resume from
    stack = [(_Box(std.lower, std.upper), -np.inf, warm_start)]
    nodes = 0
    total_iters = 0
    hit_node_limit = False

    with quiet():
        while stack:
            box, bound, start = stack.pop()
            if bound >= cutoff:
                continue  # the incumbent was found after this node was pushed
            if nodes >= cfg.max_nodes:
                hit_node_limit = True
                break
            status, x, obj, iters, basis = solve_standardized(std, cfg, start, box)
            nodes += 1
            total_iters += iters

            if status is SolveStatus.INFEASIBLE:
                continue
            if status is SolveStatus.UNBOUNDED:
                return Solution(status, -std.sense_sign * np.inf, None, total_iters, nodes)
            if status is SolveStatus.ITERATION_LIMIT:
                return Solution(status, np.nan, None, total_iters, nodes)
            if obj >= cutoff:
                continue  # cannot improve on the incumbent

            alternatives = branching(x)
            if not alternatives:
                inc_x, inc_obj, inc_basis = x, obj, basis
                cutoff = obj - 1e-9 * max(1.0, abs(obj))
                continue
            for j, value in alternatives:  # the preferred child is pushed last, so it pops first
                if not box.lo[j] <= value <= box.up[j]:
                    continue  # the fix contradicts a bound already in force
                stack.append((box.fixed_at(j, value), obj, basis))

    if inc_x is None:
        status = SolveStatus.NODE_LIMIT if hit_node_limit else SolveStatus.INFEASIBLE
        return Solution(status, np.nan, None, total_iters, nodes)
    status = SolveStatus.NODE_LIMIT if hit_node_limit else SolveStatus.OPTIMAL
    return Solution(status, std.sense_sign * inc_obj, inc_x, total_iters, nodes, inc_basis)
