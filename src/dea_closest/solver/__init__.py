"""Embedded LP/MILP solver: bounded-variable primal simplex plus branch and bound."""

from .branch_and_bound import solve_milp
from .model import Basis, LinearProgram, Solution, SolveStatus, SolverConfig
from .simplex import solve_lp

__all__ = [
    "Basis",
    "LinearProgram",
    "Solution",
    "SolveStatus",
    "SolverConfig",
    "solve_lp",
    "solve_milp",
]
