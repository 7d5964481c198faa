"""Shared fixtures: the two reference datasets, random generators, and
brute-force oracles used to cross-check the solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from dea_closest import Dataset, LinearProgram, SolverConfig, SolveStatus, solve_lp

EIGHT_DMU_CSV = """dmu,in:input,out:output
DMU1,1,2
DMU2,2,5
DMU3,3,6
DMU4,5,8
DMU5,8,8
DMU6,2,1
DMU7,3,3
DMU8,6,4
"""

FOUR_DMU_CSV = """dmu,in:input,out:output
A,2,2
B,3,5
C,6,6
D,4,4
"""


def make_dataset(x: np.ndarray, y: np.ndarray, names=None) -> Dataset:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    names = names or [f"U{k + 1}" for k in range(x.shape[0])]
    return Dataset(tuple(names), x, y,
                   tuple(f"x{i + 1}" for i in range(x.shape[1])),
                   tuple(f"y{r + 1}" for r in range(y.shape[1])))


def log_uniform_dataset(seed):
    """15 DMUs, 2 inputs and 2 outputs spread over six decades within each column."""
    v = np.round(10 ** np.random.default_rng(seed).uniform(0, 6, (15, 4)), 3)
    return make_dataset(v[:, :2], v[:, 2:])


def with_dmu(ds: Dataset, name: str, inputs, outputs) -> Dataset:
    """``ds`` with one DMU appended, a virtual point to test against."""
    return Dataset(ds.names + (name,), np.vstack([ds.x, list(inputs)]),
                   np.vstack([ds.y, list(outputs)]), ds.input_names, ds.output_names)


def reordered(ds: Dataset, permutation) -> Dataset:
    """``ds`` with its DMUs in ``permutation`` order."""
    perm = list(permutation)
    assert sorted(perm) == list(range(ds.n)), "not a permutation of the DMU indices"
    return Dataset(tuple(ds.names[i] for i in perm), ds.x[perm], ds.y[perm],
                   ds.input_names, ds.output_names)


@pytest.fixture(scope="session")
def eight_dmu() -> Dataset:
    """One input, one output; frontier is DMU1-DMU2-DMU4 with DMU3 on the
    second segment; DMU5..DMU8 inefficient."""
    return make_dataset(
        np.array([[1], [2], [3], [5], [8], [2], [3], [6]], dtype=float),
        np.array([[2], [5], [6], [8], [8], [1], [3], [4]], dtype=float),
        names=[f"DMU{k}" for k in range(1, 9)])


@pytest.fixture(scope="session")
def four_dmu() -> Dataset:
    """A, B, C efficient; D inefficient between the B-projections."""
    return make_dataset(
        np.array([[2], [3], [6], [4]], dtype=float),
        np.array([[2], [5], [6], [4]], dtype=float),
        names=["A", "B", "C", "D"])


@pytest.fixture(scope="session")
def cfg() -> SolverConfig:
    return SolverConfig()


def random_dataset(rng: np.random.Generator, max_n: int = 15, max_dim: int = 3) -> Dataset:
    n = int(rng.integers(4, max_n + 1))
    m = int(rng.integers(1, max_dim + 1))
    s = int(rng.integers(1, max_dim + 1))
    x = np.round(rng.uniform(1, 100, size=(n, m)), 3)
    y = np.round(rng.uniform(1, 100, size=(n, s)), 3)
    return make_dataset(x, y)


def multiplier_score(ds: Dataset, o: int, cfg: SolverConfig) -> float:
    """Radial BCC score from the multiplier (dual) side, to cross-check the
    envelopment side.

    max  sum_r w_out_r y_ro - w0
    s.t. sum_i w_in_i x_io = 1
         sum_r w_out_r y_rj - sum_i w_in_i x_ij - w0 <= 0   for every j
         w >= 0, w0 free
    """
    n, m, s = ds.n, ds.m, ds.s
    a = np.zeros((1 + n, m + s + 1))  # columns [w_in, w_out, w0]
    a[0, :m] = ds.x[o]
    a[1:] = np.hstack([-ds.x, ds.y, -np.ones((n, 1))])
    b = np.r_[1.0, np.zeros(n)]
    c = np.r_[np.zeros(m), ds.y[o], -1.0]
    lower = np.r_[np.zeros(m + s), -np.inf]
    upper = np.full(m + s + 1, np.inf)
    sol = solve_lp(LinearProgram("max", c, a, ("=",) + ("<=",) * n, b, lower, upper), cfg)
    assert sol.status is SolveStatus.OPTIMAL, f"multiplier model for DMU {ds.names[o]!r}"
    return float(sol.objective)


def multiplier_intercept_program(ds: Dataset, px: np.ndarray, py: np.ndarray,
                                 sense: str) -> LinearProgram:
    """Supporting-hyperplane intercept program in multiplier form, the LP
    dual of the envelopment-form program behind intercept_bounds.

    max or min  w0
    s.t. sum_i w_in_i px_i = 1
         sum_r w_out_r y_rj - sum_i w_in_i x_ij - w0 <= 0   for every j
         sum_r w_out_r py_r - sum_i w_in_i px_i - w0 = 0
         w >= 0, w0 free
    """
    n, m, s = ds.n, ds.m, ds.s
    a = np.zeros((n + 2, m + s + 1))  # columns [w_in, w_out, w0]
    a[0, :m] = px
    a[1:] = np.hstack([-np.vstack([ds.x, px]), np.vstack([ds.y, py]), -np.ones((n + 1, 1))])
    b = np.r_[1.0, np.zeros(n + 1)]
    c = np.r_[np.zeros(m + s), 1.0]
    lower = np.r_[np.zeros(m + s), -np.inf]
    return LinearProgram(sense, c, a, ("=",) + ("<=",) * n + ("=",), b, lower,
                         np.full(m + s + 1, np.inf))


def highs_solve(lp: LinearProgram, linprog, method: str, presolve: bool = True):
    """``lp`` solved by scipy's ``linprog`` with the HiGHS ``method``: the
    result and the optimum in ``lp``'s own sense, +-inf when scipy reports
    the program unbounded (status 3) and None for any other status but 0."""
    assert ">=" not in lp.relations, "every inequality row is read as <="
    eq = np.array([rel == "=" for rel in lp.relations], dtype=bool)
    sign = 1.0 if lp.sense == "min" else -1.0
    res = linprog(sign * lp.c, A_ub=lp.a[~eq], b_ub=lp.b[~eq], A_eq=lp.a[eq], b_eq=lp.b[eq],
                  bounds=np.column_stack([lp.lower, lp.upper]), method=method,
                  options={"presolve": presolve})
    if res.status == 3:
        return res, -sign * np.inf
    return res, (sign * res.fun if res.status == 0 else None)


def highs_intercept_both(lp, linprog):
    """Optimum of a multiplier-form intercept program by HiGHS's dual simplex
    and by its interior point, which must agree; +-inf when unbounded."""
    optima = []
    for method in ("highs-ds", "highs-ipm"):
        res, value = highs_solve(lp, linprog, method, presolve=False)
        assert res.status in (0, 3), (method, res.message)
        optima.append(value)
    assert optima[0] == pytest.approx(optima[1], rel=1e-9, abs=1e-9)
    return optima[0]


def random_box_lp(rng: np.random.Generator) -> LinearProgram:
    """Equality-constrained LP with finite box bounds; two thirds are feasible
    by construction, the rest get a random rhs."""
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, min(5, n - 1) + 1))
    a = np.round(rng.uniform(-3, 3, (m, n)), 2)
    lower = np.round(rng.uniform(-5, 0, n), 2)
    upper = lower + np.round(rng.uniform(0.5, 6, n), 2)
    if rng.integers(3) == 0:
        b = np.round(rng.uniform(-5, 5, m), 2)
    else:
        x0 = lower + rng.uniform(0, 1, n) * (upper - lower)
        b = a @ x0
    c = np.round(rng.uniform(-5, 5, n), 2)
    sense = "min" if rng.integers(2) else "max"
    return LinearProgram(sense, c, a, ("=",) * m, b, lower, upper)


def random_inequality_lp(rng: np.random.Generator) -> LinearProgram:
    """Boxed LP with mixed <=, >= and = rows and rhs of both signs; two thirds
    are feasible by construction (inequality rows get a random margin), the
    rest get a random rhs."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 4))
    a = np.round(rng.uniform(-3, 3, (m, n)), 2)
    lower = np.round(rng.uniform(-5, 0, n), 2)
    upper = lower + np.round(rng.uniform(0.5, 6, n), 2)
    rels = tuple(str(rng.choice(["<=", ">=", "="])) for _ in range(m))
    if rng.integers(3) == 0:
        b = np.round(rng.uniform(-5, 5, m), 2)
    else:
        x0 = lower + rng.uniform(0, 1, n) * (upper - lower)
        margin = np.array([{"<=": 1.0, ">=": -1.0, "=": 0.0}[r] for r in rels])
        b = a @ x0 + margin * rng.uniform(0, 2, m)
    c = np.round(rng.uniform(-5, 5, n), 2)
    sense = "min" if rng.integers(2) else "max"
    return LinearProgram(sense, c, a, rels, b, lower, upper)


def equality_twin(lp: LinearProgram) -> LinearProgram:
    """The same program in equality form: one explicit slack column per
    inequality row, boxed by the range a.x takes over the variable box, so
    the twin has finite bounds and the same optimum."""
    lo_ax = np.minimum(lp.a * lp.lower, lp.a * lp.upper).sum(axis=1)
    up_ax = np.maximum(lp.a * lp.lower, lp.a * lp.upper).sum(axis=1)
    ineq = [i for i, rel in enumerate(lp.relations) if rel != "="]
    a = np.hstack([lp.a, np.zeros((lp.n_rows, len(ineq)))])
    slack_up = np.empty(len(ineq))
    for k, i in enumerate(ineq):
        if lp.relations[i] == "<=":  # a.x + s = b, s = b - a.x
            a[i, lp.n_vars + k] = 1.0
            slack_up[k] = max(0.0, lp.b[i] - lo_ax[i])
        else:  # a.x - s = b, s = a.x - b
            a[i, lp.n_vars + k] = -1.0
            slack_up[k] = max(0.0, up_ax[i] - lp.b[i])
    return LinearProgram(lp.sense, np.concatenate([lp.c, np.zeros(len(ineq))]), a,
                         ("=",) * lp.n_rows, lp.b,
                         np.concatenate([lp.lower, np.zeros(len(ineq))]),
                         np.concatenate([lp.upper, slack_up]))


def random_complementarity_lp(rng: np.random.Generator, max_pairs: int = 5) -> LinearProgram:
    """Boxed nonnegative program with complementarity pairs over distinct
    columns; two thirds have rows that a complementary point satisfies."""
    k = int(rng.integers(1, max_pairs + 1))
    n = 2 * k + int(rng.integers(0, 3))
    m = int(rng.integers(1, 4))
    a = np.round(rng.uniform(-4, 4, (m, n)), 2)
    upper = np.round(rng.uniform(1, 8, n), 2)
    rels = tuple(str(rng.choice(["<=", ">=", "="])) for _ in range(m))
    pairs = rng.permutation(n)[:2 * k].reshape(k, 2)
    if rng.integers(3) == 0:
        b = np.round(rng.uniform(-3, 5, m), 2)
    else:
        x0 = rng.uniform(0, 1, n) * upper
        x0[pairs[np.arange(k), rng.integers(0, 2, k)]] = 0.0
        b = a @ x0
    c = np.round(rng.uniform(-5, 5, n), 2)
    sense = "min" if rng.integers(2) else "max"
    return LinearProgram(sense, c, a, rels, b, np.zeros(n), upper, complements=pairs)


def enumerate_lp_optimum(lp: LinearProgram, tol: float = 1e-7) -> float | None:
    """Optimal objective by enumerating every basic solution of an
    equality-form LP with finite bounds: pick the basic columns, park each
    nonbasic variable at one of its bounds, solve for the basics, keep the
    feasible ones.  None means infeasible."""
    a, b, c = lp.a, lp.b, lp.c
    assert all(rel == "=" for rel in lp.relations), "oracle needs equality rows"
    assert np.all(np.isfinite(lp.lower)) and np.all(np.isfinite(lp.upper))
    m, n = a.shape
    sign = 1.0 if lp.sense == "min" else -1.0
    best = None
    for basis in itertools.combinations(range(n), m):
        bmat = a[:, list(basis)]
        if abs(np.linalg.det(bmat)) < 1e-10:
            continue
        nonb = [j for j in range(n) if j not in basis]
        choices = [(lp.lower[j],) if lp.lower[j] == lp.upper[j]
                   else (lp.lower[j], lp.upper[j]) for j in nonb]
        for pick in itertools.product(*choices):
            xn = np.array(pick)
            xb = np.linalg.solve(bmat, b - a[:, nonb] @ xn)
            if np.any(xb < lp.lower[list(basis)] - tol):
                continue
            if np.any(xb > lp.upper[list(basis)] + tol):
                continue
            x = np.empty(n)
            x[list(basis)] = xb
            x[nonb] = xn
            v = sign * float(c @ x)
            best = v if best is None else min(best, v)
    return None if best is None else sign * best


def enumerate_pair_sides(lp: LinearProgram, solve) -> float | None:
    """Optimal objective over every choice of the member zeroed in each
    complementarity pair: ``solve`` maps each choice, a program without
    pairs, to its optimum, or to None when it has none.  None means no
    choice has one."""
    sign = 1.0 if lp.sense == "min" else -1.0
    best = None
    for sides in itertools.product((0, 1), repeat=len(lp.complements)):
        lo = lp.lower.copy()
        up = lp.upper.copy()
        zeroed = lp.complements[np.arange(len(sides)), list(sides)]
        lo[zeroed] = up[zeroed] = 0.0
        value = solve(LinearProgram(lp.sense, lp.c, lp.a, lp.relations, lp.b, lo, up))
        if value is not None:
            v = sign * value
            best = v if best is None else min(best, v)
    return None if best is None else sign * best


def enumerate_milp_optimum(lp: LinearProgram, cfg: SolverConfig) -> float | None:
    """``enumerate_pair_sides`` with each choice solved by solve_lp."""
    def optimum(sub):
        sol = solve_lp(sub, cfg)
        return sol.objective if sol.status is SolveStatus.OPTIMAL else None

    return enumerate_pair_sides(lp, optimum)
