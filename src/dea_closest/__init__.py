"""Least-distance DEA benchmarking.

For each decision-making unit the pipeline computes a BCC efficiency score,
a unique closest efficient target by lexicographic slack minimization, the
maximal closest reference set behind that target, and the returns-to-scale
class of the target point.  All optimization runs on an embedded
bounded-variable simplex with a branch-and-bound layer for complementarity
pairs.
"""

__version__ = "0.1.0"

from .data import (Dataset, PriorityRanking, default_priority, dump_dataset, load_dataset,
                   priority_from_labels)
from .efficiency import EfficiencyResult, Frontier, efficient_set, evaluate_all, evaluate_bcc
from .errors import AnalysisError, DeaError, SolverLimitError, ValidationError
from .projection import (Projection, StageSolution, build_stage_program, closest_projection,
                         derive_stage_program)
from .reference_set import McrsResult, identify_mcrs, solve_max_support_lp
from .returns_to_scale import (CrtsResult, RtsBounds, RtsLabel, classify_rts, closest_rts,
                               intercept_bounds)
from .solver import LinearProgram, Solution, SolveStatus, SolverConfig, solve_lp, solve_milp

__all__ = [
    "__version__",
    "AnalysisError", "DeaError", "SolverLimitError", "ValidationError",
    "Dataset", "PriorityRanking", "default_priority", "dump_dataset",
    "load_dataset", "priority_from_labels",
    "EfficiencyResult", "Frontier", "efficient_set", "evaluate_all", "evaluate_bcc",
    "Projection", "StageSolution", "build_stage_program", "derive_stage_program",
    "closest_projection",
    "McrsResult", "identify_mcrs", "solve_max_support_lp",
    "CrtsResult", "RtsBounds", "RtsLabel", "classify_rts", "closest_rts", "intercept_bounds",
    "LinearProgram", "Solution", "SolveStatus", "SolverConfig", "solve_lp", "solve_milp",
]
