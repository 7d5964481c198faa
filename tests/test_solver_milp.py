import numpy as np
import pytest

from dea_closest import LinearProgram, Solution, SolverConfig, SolveStatus, solve_lp, solve_milp
from dea_closest.solver.branch_and_bound import _branching, _warm_objective
from dea_closest.solver.model import INT_TOL
from dea_closest.solver.simplex import standardize

from conftest import enumerate_milp_optimum, random_binary_lp, random_complementarity_lp


def knapsack() -> LinearProgram:
    # max 3a + 4b + 5c s.t. 2a + 3b + 4c <= 5, binaries; optimum 7 at (1,1,0)
    return LinearProgram("max", [3.0, 4.0, 5.0], [[2.0, 3.0, 4.0]], ("<=",), [5.0],
                         [0.0] * 3, [1.0] * 3, binary=[True] * 3)


def test_knapsack_equals_enumeration(cfg):
    lp = knapsack()
    sol = solve_milp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(7.0)
    assert sol.objective == pytest.approx(enumerate_milp_optimum(lp, cfg))
    assert sol.x[:2] == pytest.approx([1.0, 1.0], abs=1e-6)
    assert sol.x[2] == pytest.approx(0.0, abs=1e-6)


def test_integral_relaxation_short_circuit(cfg):
    # relaxation optimum already lands on a 0/1 point
    lp = LinearProgram("min", [1.0, -1.0], [[1.0, 1.0]], ("<=",), [1.0],
                       [0.0, 0.0], [1.0, 1.0], binary=[True, True])
    milp = solve_milp(lp, cfg)
    relaxed = solve_lp(LinearProgram("min", lp.c, lp.a, lp.relations, lp.b,
                                     lp.lower, lp.upper), cfg)
    assert milp.status is SolveStatus.OPTIMAL
    assert milp.objective == pytest.approx(relaxed.objective)
    assert milp.nodes == 1


def test_empty_binary_mask_delegates(cfg):
    lp = LinearProgram("min", [1.0, 0.0], [[1.0, 1.0]], ("=",), [1.0],
                       [0.0, 0.0], [1.0, 1.0])
    sol = solve_milp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.nodes == 0


def test_infeasible_milp(cfg):
    # a + b = 0.5 has no 0/1 solution
    lp = LinearProgram("min", [1.0, 1.0], [[1.0, 1.0]], ("=",), [0.5],
                       [0.0, 0.0], [1.0, 1.0], binary=[True, True])
    assert solve_milp(lp, cfg).status is SolveStatus.INFEASIBLE


def test_unbounded_root_reported(cfg):
    lp = LinearProgram("min", [-1.0, 0.0], [[0.0, 1.0]], ("<=",), [1.0],
                       [0.0, 0.0], [np.inf, 1.0], binary=[False, True])
    sol = solve_milp(lp, cfg)
    assert sol.status is SolveStatus.UNBOUNDED
    assert sol.objective == -np.inf


def test_node_limit(cfg):
    # force branching, then stop after the root node
    lp = LinearProgram("min", [1.0, 1.0, 1.0],
                       [[2.0, 2.0, 2.0]], (">=",), [3.0],
                       [0.0] * 3, [1.0] * 3, binary=[True] * 3)
    sol = solve_milp(lp, SolverConfig(max_nodes=1))
    assert sol.status is SolveStatus.NODE_LIMIT


def test_warm_start_accepted_and_harmless(cfg):
    lp = knapsack()
    plain = solve_milp(lp, cfg)
    warm = solve_milp(lp, cfg, warm_start=Solution(SolveStatus.OPTIMAL, 7.0, np.array([1.0, 1.0, 0.0])))
    assert warm.status is SolveStatus.OPTIMAL
    assert warm.objective == pytest.approx(plain.objective)
    # infeasible hints are dropped, not trusted
    bogus = solve_milp(lp, cfg, warm_start=Solution(SolveStatus.OPTIMAL, 12.0, np.array([1.0, 1.0, 1.0])))
    assert bogus.objective == pytest.approx(plain.objective)


def test_warm_start_must_be_a_solution(cfg):
    lp = knapsack()
    point = np.array([1.0, 1.0, 0.0])
    with pytest.raises(TypeError, match="Solution"):
        solve_milp(lp, cfg, warm_start=point)
    relaxed = LinearProgram("max", lp.c, lp.a, lp.relations, lp.b, lp.lower, lp.upper)
    with pytest.raises(TypeError, match="Solution"):
        solve_lp(relaxed, cfg, warm_start=point)


def test_matches_enumeration_on_random_milps(cfg):
    inputs = (
        (31415, lambda rng: random_binary_lp(rng, max_binaries=8), 8),
        (2718, lambda rng: random_complementarity_lp(rng, max_pairs=6), 20),
    )
    for seed, generate, minimum in inputs:
        rng = np.random.default_rng(seed)
        feasible = 0
        for _ in range(25):
            lp = generate(rng)
            sol = solve_milp(lp, cfg)
            expected = enumerate_milp_optimum(lp, cfg)
            if expected is None:
                assert sol.status is SolveStatus.INFEASIBLE
            else:
                feasible += 1
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.objective == pytest.approx(expected, abs=1e-7)
                frac = np.abs(sol.x[lp.binary] - np.round(sol.x[lp.binary]))
                assert frac.max(initial=0.0) <= INT_TOL
                pairs = lp.complements
                assert np.minimum(sol.x[pairs[:, 0]], sol.x[pairs[:, 1]]).max(initial=0.0) <= 1e-8
        assert feasible > minimum


def test_twelve_binaries_equal_enumeration(cfg):
    rng = np.random.default_rng(1212)
    lp = None
    while lp is None or lp.binary.sum() != 12:
        lp = random_binary_lp(rng, max_binaries=12)
    sol = solve_milp(lp, cfg)
    expected = enumerate_milp_optimum(lp, cfg)
    if expected is None:
        assert sol.status is SolveStatus.INFEASIBLE
    else:
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(expected, abs=1e-7)


def test_determinism(cfg):
    rng = np.random.default_rng(161)
    for _ in range(8):
        lp = random_binary_lp(rng, max_binaries=6)
        a = solve_milp(lp, cfg)
        b = solve_milp(lp, cfg)
        assert a.status is b.status
        assert a.nodes == b.nodes
        if a.status is SolveStatus.OPTIMAL:
            assert np.array_equal(a.x, b.x)


def loop_warm_objective(lp, std, x):
    """The warm-start screen as a per-row loop, the reference for the
    vectorized one."""
    if x is None or len(x) != lp.n_vars:
        return None
    tol = 1e-6
    if np.any(x < lp.lower - tol) or np.any(x > lp.upper + tol):
        return None
    lhs = lp.a @ x
    for i, rel in enumerate(lp.relations):
        r = lhs[i] - lp.b[i]
        if rel == "=" and abs(r) > tol:
            return None
        if rel == "<=" and r > tol:
            return None
        if rel == ">=" and r < -tol:
            return None
    if _branching(x, lp):
        return None
    return float(std.c[: lp.n_vars] @ x)


def test_warm_screen_matches_the_row_loop():
    # every row sits at its rhs plus an offset inside or past the 1e-6
    # screen tolerance on either side, and one point in four also leaves
    # its box by as much, so each relation and the bounds get broken both ways
    rng = np.random.default_rng(606)
    offsets = np.array([-2e-6, -5e-7, 0.0, 5e-7, 2e-6])
    broken = {"=": 0, "<=": 0, ">=": 0, "bound": 0}
    accepted = 0
    for k in range(120):
        lp = random_binary_lp(rng) if k % 2 else random_complementarity_lp(rng)
        x = lp.lower + rng.uniform(0, 1, lp.n_vars) * (lp.upper - lp.lower)
        x[lp.binary] = np.round(x[lp.binary])
        pairs = lp.complements
        x[pairs[np.arange(len(pairs)), rng.integers(0, 2, len(pairs))]] = 0.0
        off = rng.choice(offsets, lp.n_rows)
        lp = LinearProgram(lp.sense, lp.c, lp.a, lp.relations, lp.a @ x - off, lp.lower,
                           lp.upper, lp.binary, lp.complements)
        if rng.integers(4) == 0:
            j = int(rng.integers(lp.n_vars))
            x[j] = lp.lower[j] - 2e-6 if rng.integers(2) else lp.upper[j] + 2e-6
            broken["bound"] += 1
        for rel, r in zip(lp.relations, off):
            if {"=": abs(r), "<=": r, ">=": -r}[rel] > 1e-6:
                broken[rel] += 1
        std = standardize(lp)
        expected = loop_warm_objective(lp, std, x)
        assert _warm_objective(lp, std, x) == expected
        accepted += expected is not None
    assert min(broken.values()) > 5 and accepted > 5
