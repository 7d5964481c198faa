"""Problem and solution containers for the LP/MILP solver."""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from enum import Enum

import numpy as np

RELATIONS = ("=", "<=", ">=")


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"


# Fixed tolerances of the solver
FEAS_TOL = 1e-9  # constraint and bound satisfaction
PIVOT_TOL = 1e-9  # reduced-cost and pivot-element threshold in the simplex
DEGEN_LIMIT = 50  # degenerate pivots in a row before pricing switches from Dantzig to Bland


@dataclass(frozen=True)
class SolverConfig:
    """Reporting threshold and limits shared by every solve in the pipeline.

    Attributes
    ----------
    zero_tol : reporting threshold; values below it are treated as zero when
        classifying efficiency, reference-set membership, and returns to scale.
    max_iterations : simplex pivot budget per LP solve; a warm start that gives
        up leaves the cold solve that replaces it a full budget.
    max_nodes : branch-and-bound node budget per MILP solve.
    """

    zero_tol: float = 1e-7
    max_iterations: int = 20_000
    max_nodes: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.zero_tol < np.inf:
            raise ValueError("zero_tol must be positive and finite")
        if self.max_iterations <= 0 or self.max_nodes <= 0:
            raise ValueError("iteration and node limits must be positive")


# what each array checked by ``LinearProgram._check_values`` may hold
_ALLOWED = {
    "c": "the objective must be finite",
    "a": "the matrix must be finite",
    "b": "the right-hand side must be finite",
    "lower": "a lower bound may be -inf but not NaN or +inf",
    "upper": "an upper bound may be +inf but not NaN or -inf",
}


def _as_float_array(value, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return arr


def _as_pairs(value) -> np.ndarray:
    """``complements`` as a (k, 2) integer array: None or an empty sequence
    is no pairs, and an integer (k, 2) array is shared as given.  Any other
    value raises a ValueError that names the field."""
    try:
        pairs = np.asarray(() if value is None else value)
    except ValueError:  # ragged rows, rejected below as a 0-d array
        pairs = np.asarray(None)
    if pairs.shape == (0,):
        pairs = np.zeros((0, 2), dtype=int)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError("complements must be None or integer column pairs of shape (k, 2), "
                         f"not {value!r}")
    return pairs.astype(int, copy=False)


@dataclass
class LinearProgram:
    """Dense linear program with per-variable bounds and optional
    complementarity pairs.

    ``a @ x  (relations)  b`` row-wise, ``lower <= x <= upper``, and for each
    row ``(i, j)`` of ``complements`` the nonnegative columns i and j may not
    both be positive (``x_i * x_j = 0``).  ``complements`` is keyword-only:
    None or an empty sequence (no pairs), or integers of shape (k, 2).
    A lower bound may be ``-inf`` and an upper bound ``+inf``; a pair with
    ``lower == upper`` pins the variable.  Construction rejects any other NaN
    or infinity with a ValueError that names the field.

    A related program is derived with ``dataclasses.replace``, which runs
    the whole validation again and shares with this program, not copies,
    every array it is not given.
    """

    sense: str
    c: np.ndarray
    a: np.ndarray
    relations: tuple[str, ...]
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    _: KW_ONLY
    complements: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        self.c = _as_float_array(self.c, 1)
        self.a = _as_float_array(self.a, 2)
        self.b = _as_float_array(self.b, 1)
        self.lower = _as_float_array(self.lower, 1)
        self.upper = _as_float_array(self.upper, 1)
        n = self.c.size
        rows = self.a.shape[0]
        if self.a.shape[1] != n:
            raise ValueError(f"matrix has {self.a.shape[1]} columns, objective has {n}")
        if self.b.size != rows:
            raise ValueError(f"matrix has {rows} rows, rhs has {self.b.size}")
        if len(self.relations) != rows:
            raise ValueError(f"matrix has {rows} rows, {len(self.relations)} relations given")
        for rel in self.relations:
            if rel not in RELATIONS:
                raise ValueError(f"unknown row relation {rel!r}")
        self.relations = tuple(self.relations)
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bound vectors must match the number of variables")
        self.complements = _as_pairs(self.complements)
        if len(self.complements) and (self.complements.min() < 0
                                       or self.complements.max() >= n):
            raise ValueError("complementarity pair refers to a missing variable")
        if (self.complements[:, 0] == self.complements[:, 1]).any():
            raise ValueError("complementarity pair joins a variable with itself")
        self._check_values()

    def _check_values(self):
        """Reject a NaN or an infinity in the objective, the matrix or the
        right-hand side, a NaN bound, a lower bound of +inf, an upper bound
        of -inf, crossed bounds and complementary variables that may go
        negative.

        A lower bound may be -inf and an upper bound +inf: clipping them at
        zero from the side they may be infinite on maps both to finite
        values and keeps every other entry's NaN or infinity, so one
        ``isfinite`` pass over all arrays checks every value.
        """
        named = (("c", self.c), ("a", self.a), ("b", self.b),
                 ("lower", np.maximum(self.lower, 0.0)), ("upper", np.minimum(self.upper, 0.0)))
        finite = np.isfinite(np.concatenate([arr.ravel() for _, arr in named]))
        if not finite.all():
            at = int(finite.argmin())
            for name, arr in named:
                if at < arr.size:
                    value = arr.ravel()[at]
                    raise ValueError(f"{name} holds {value} at flat index {at}; "
                                     f"{_ALLOWED[name]}")
                at -= arr.size
        crossed = self.lower > self.upper
        if crossed.any():
            bad = int(crossed.argmax())
            raise ValueError(f"variable {bad}: lower bound exceeds upper bound")
        if len(self.complements) and (self.lower[self.complements] < 0.0).any():
            raise ValueError("complementary variables must be nonnegative")

    @property
    def is_mixed(self) -> bool:
        """True when some complementarity pair needs branching."""
        return len(self.complements) > 0

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class Basis:
    """Final basis of a simplex solve, kept so that a related program can
    resume from it; the one thing a ``warm_start`` carries.

    ``columns[i]`` is the column of the internal standardized system
    (structural variables, then one slack per inequality row) basic in row
    i, and ``x`` is the full standardized point at that basis.  A solve that
    resumes from the record places each nonbasic column by its value against
    its own bounds, so the record stays meaningful when bounds change.  A
    caller that knows a basic feasible point of a program names its basis by
    hand as ``Basis(columns)``; without ``x``, each nonbasic column rests
    where its own bounds put it (its lower bound if finite, else its upper,
    else zero).  A basis the solve cannot resume from (a singular one, or
    one of another system) sends it to its cold start.

    The keyword-only ``inverse`` is the factorized inverse of the basic
    columns of ``source`` in row order, and ``source`` the standardized
    matrix they were gathered from.  A resuming solve over that very array
    (a branch-and-bound node, or a program derived from another with
    ``dataclasses.replace``, which shares it) starts from a copy of
    ``inverse``; a solve over any other array, even one equal to it,
    factorizes its own basic columns afresh.  Two branch-and-bound children
    resume from one parent record, so its arrays are read-only; ``source``
    belongs to the program and is left as it is.
    """

    columns: np.ndarray
    x: np.ndarray | None = None
    _: KW_ONLY
    inverse: np.ndarray | None = None
    source: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.columns, self.x, self.inverse):
            if arr is not None:
                arr.flags.writeable = False


@dataclass
class Solution:
    """Result of an LP or MILP solve.

    ``x`` holds structural variable values only when the status is OPTIMAL
    (or NODE_LIMIT with an incumbent), otherwise None.  ``basis`` is the
    final basis of the solve that produced ``x``: the LP's own, or for a
    MILP the branch-and-bound node that found the incumbent.  It is None
    when there is no ``x``.  Passing it as ``warm_start`` to a solve of a
    program with the same rows and columns starts it from that basis.

    ``priced_out`` is, for an optimal LP, a mask over the structural
    columns: True where the column is nonbasic and its reduced cost at the
    final basis holds it at its bound by more than the simplex's pricing
    threshold.  Moving such a column off its bound strictly worsens the
    objective, so it sits at that bound in every optimal solution.  It is
    None for a MILP and when an artificial variable stayed basic.
    """

    status: SolveStatus
    objective: float
    x: np.ndarray | None
    iterations: int = 0
    nodes: int = 0
    basis: Basis | None = None
    priced_out: np.ndarray | None = None
