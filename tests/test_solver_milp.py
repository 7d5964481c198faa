import numpy as np
import pytest

from dea_closest import (LinearProgram, SolverConfig, SolveStatus, closest_projection,
                         default_priority, efficient_set, solve_lp, solve_milp)
from dea_closest.solver import Basis, branch_and_bound, simplex
from dea_closest.solver.model import FEAS_TOL

from conftest import enumerate_milp_optimum, random_complementarity_lp, random_dataset


def knapsack() -> LinearProgram:
    # max 3a + 4b + 5c s.t. 2a + 3b + 4c <= 5, each in [0, 1], and a, b not
    # both positive; the relaxation's (1, 1, 0) breaks the pair, and the
    # optimum is 6.75 at (1, 0, 0.75) against 6.5 at (0, 1, 0.5)
    return LinearProgram("max", [3.0, 4.0, 5.0], [[2.0, 3.0, 4.0]], ("<=",), [5.0],
                         [0.0] * 3, [1.0] * 3, complements=[[0, 1]])


def test_knapsack_equals_enumeration(cfg):
    lp = knapsack()
    sol = solve_milp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(6.75)
    assert sol.objective == pytest.approx(enumerate_milp_optimum(lp, cfg))
    assert sol.x == pytest.approx([1.0, 0.0, 0.75], abs=1e-6)
    assert sol.nodes > 1


def test_complementary_relaxation_short_circuit(cfg):
    # relaxation optimum already leaves a member of the pair at zero
    lp = LinearProgram("min", [1.0, -1.0], [[1.0, 1.0]], ("<=",), [1.0],
                       [0.0, 0.0], [1.0, 1.0], complements=[[0, 1]])
    milp = solve_milp(lp, cfg)
    relaxed = solve_lp(LinearProgram("min", lp.c, lp.a, lp.relations, lp.b,
                                     lp.lower, lp.upper), cfg)
    assert milp.status is SolveStatus.OPTIMAL
    assert milp.objective == pytest.approx(relaxed.objective)
    assert milp.nodes == 1


def test_program_without_pairs_delegates(cfg):
    lp = LinearProgram("min", [1.0, 0.0], [[1.0, 1.0]], ("=",), [1.0],
                       [0.0, 0.0], [1.0, 1.0])
    sol = solve_milp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.nodes == 0


def test_infeasible_milp(cfg):
    # a + b = 1.5 with a, b in [0, 1] needs both positive
    lp = LinearProgram("min", [1.0, 1.0], [[1.0, 1.0]], ("=",), [1.5],
                       [0.0, 0.0], [1.0, 1.0], complements=[[0, 1]])
    assert solve_milp(lp, cfg).status is SolveStatus.INFEASIBLE


def test_unbounded_root_reported(cfg):
    lp = LinearProgram("min", [-1.0, 0.0], [[0.0, 1.0]], ("<=",), [1.0],
                       [0.0, 0.0], [np.inf, 1.0], complements=[[0, 1]])
    sol = solve_milp(lp, cfg)
    assert sol.status is SolveStatus.UNBOUNDED
    assert sol.objective == -np.inf


def test_node_limit(cfg):
    # force branching, then stop after the root node: a sum of 1.5 over
    # columns in [0, 1] needs two of them positive, which every pair forbids
    lp = LinearProgram("min", [1.0, 1.0, 1.0],
                       [[2.0, 2.0, 2.0]], (">=",), [3.0],
                       [0.0] * 3, [1.0] * 3, complements=[[0, 1], [1, 2], [0, 2]])
    sol = solve_milp(lp, SolverConfig(max_nodes=1))
    assert sol.status is SolveStatus.NODE_LIMIT


def test_child_tied_with_the_incumbent_is_not_solved(monkeypatch, cfg):
    # every feasible point costs a + b + e = 1, and the root relaxation rests
    # at a = 0.6, b = 0.4 with the pair (a, b) violated; the dive into b = 0
    # finds an incumbent of 1, which the sibling a = 0 inherits as its bound
    lp = LinearProgram("min", [1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], ("=",), [1.0],
                       [0.0] * 3, [0.6, 0.6, 1.0], complements=[[0, 1]])
    solved = []
    original = branch_and_bound.solve_standardized

    def counting(std, cfg, start, box):
        outcome = original(std, cfg, start, box)
        solved.append((box.lo.copy(), box.up.copy(), outcome[1]))
        return outcome

    monkeypatch.setattr(branch_and_bound, "solve_standardized", counting)
    sol = solve_milp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0)
    assert sol.nodes == len(solved) == 2
    root_x = solved[0][2]
    assert root_x[:2] == pytest.approx([0.6, 0.4])
    assert solved[1][1][1] == 0.0  # the dive zeroed b
    assert all(up[0] > 0.0 for _, up, _ in solved)  # the sibling a = 0 never ran

    # a discarded entry does not count toward the node limit
    assert solve_milp(lp, SolverConfig(max_nodes=2)).status is SolveStatus.OPTIMAL


def relaxation(lp: LinearProgram) -> LinearProgram:
    """The program without its complementarity pairs."""
    return LinearProgram(lp.sense, lp.c, lp.a, lp.relations, lp.b, lp.lower, lp.upper)


def other_system(lp: LinearProgram) -> LinearProgram:
    """The relaxation with one more row, so its bases have the wrong size."""
    return LinearProgram(lp.sense, lp.c, np.vstack([lp.a, np.ones(lp.n_vars)]),
                         lp.relations + ("<=",), np.r_[lp.b, 1e6], lp.lower, lp.upper)


def test_warm_start_accepted_and_harmless(cfg):
    lp = knapsack()
    plain = solve_milp(lp, cfg)
    for start in (solve_lp(relaxation(lp), cfg).basis, solve_lp(other_system(lp), cfg).basis):
        warm = solve_milp(lp, cfg, warm_start=start)
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(plain.objective)
        assert warm.x == pytest.approx(plain.x, abs=1e-9)


def test_warm_start_must_be_a_basis(cfg):
    lp = knapsack()
    for start in (solve_milp(lp, cfg), np.array([1.0, 1.0, 0.0])):
        with pytest.raises(TypeError, match="Basis"):
            solve_milp(lp, cfg, warm_start=start)
        with pytest.raises(TypeError, match="Basis"):
            solve_lp(relaxation(lp), cfg, warm_start=start)


def test_matches_enumeration_on_random_milps(cfg):
    # started from no basis, from the basis of its own relaxation, and from
    # a basis of another system (the wrong size, so the root is solved cold
    # and the search is the cold one), every program reaches the enumerated
    # optimum
    for seed, max_pairs, minimum in ((31415, 8, 8), (2718, 6, 20)):
        rng = np.random.default_rng(seed)
        feasible = warmed = 0
        for _ in range(25):
            lp = random_complementarity_lp(rng, max_pairs=max_pairs)
            expected = enumerate_milp_optimum(lp, cfg)
            own = solve_lp(relaxation(lp), cfg).basis
            other = solve_lp(other_system(lp), cfg).basis
            assert other is None or len(other.columns) == lp.n_rows + 1
            cold = solve_milp(lp, cfg)
            wrong = solve_milp(lp, cfg, warm_start=other)
            assert (wrong.nodes, wrong.iterations) == (cold.nodes, cold.iterations)
            for sol in (cold, solve_milp(lp, cfg, warm_start=own), wrong):
                if expected is None:
                    assert sol.status is SolveStatus.INFEASIBLE
                    continue
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.objective == pytest.approx(expected, abs=1e-7)
                pairs = lp.complements
                assert np.minimum(sol.x[pairs[:, 0]], sol.x[pairs[:, 1]]).max(initial=0.0) <= 1e-8
            feasible += expected is not None
            warmed += own is not None
        assert feasible > minimum and warmed > minimum


def test_twelve_pairs_equal_enumeration(cfg):
    rng = np.random.default_rng(1212)
    lp = None
    while lp is None or len(lp.complements) != 12:
        lp = random_complementarity_lp(rng, max_pairs=12)
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
        lp = random_complementarity_lp(rng, max_pairs=6)
        a = solve_milp(lp, cfg)
        b = solve_milp(lp, cfg)
        assert a.status is b.status
        assert a.nodes == b.nodes
        if a.status is SolveStatus.OPTIMAL:
            assert np.array_equal(a.x, b.x)


def reference_branching(x: np.ndarray, lp: LinearProgram) -> tuple[tuple[int, float], ...]:
    """The branching rule as it read when it took its index arrays from
    ``lp`` at every node."""
    pairs = lp.complements
    xa, xb = x[pairs[:, 0]], x[pairs[:, 1]]
    violated = np.minimum(xa, xb) > 10.0 * FEAS_TOL
    if not violated.any():
        return ()
    k = int(np.argmax(np.where(violated, xa * xb, -np.inf)))
    a, b = int(pairs[k, 0]), int(pairs[k, 1])
    small, large = (a, b) if xa[k] <= xb[k] else (b, a)
    return (large, 0.0), (small, 0.0)


def test_per_program_index_arrays_branch_as_before(monkeypatch, cfg):
    # the rule built once per program splits every node as the per-node rule
    # did: on random points (pair members zero, tiny or positive) and on
    # every node of solves that branch, which still reach the enumerated
    # optimum
    rng = np.random.default_rng(1909)
    kinds = set()
    for _ in range(40):
        lp = random_complementarity_lp(rng, max_pairs=4)
        split = branch_and_bound._branching(lp)
        for _ in range(25):
            x = rng.uniform(0.0, 1.0, lp.n_vars) * rng.choice([0.0, 1e-9, 1.0, 5.0], lp.n_vars)
            want = reference_branching(x, lp)
            assert split(x) == want
            kinds.add("pair" if want else "none")
    assert kinds == {"pair", "none"}

    original = branch_and_bound._branching
    splits = []

    def checking(lp):
        split = original(lp)

        def check(x):
            got = split(x)
            assert got == reference_branching(x, lp)
            splits.append(got)
            return got
        return check

    monkeypatch.setattr(branch_and_bound, "_branching", checking)
    feasible = 0
    for _ in range(25):
        lp = random_complementarity_lp(rng, max_pairs=4)
        expected = enumerate_milp_optimum(lp, cfg)
        sol = solve_milp(lp, cfg)
        if expected is None:
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            feasible += 1
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-7)
    assert feasible > 8 and len([s for s in splits if s]) > 20


def test_patched_bound_tables_equal_fresh_ones(monkeypatch, cfg):
    # each child's bound table is its parent's, patched at the fixed column;
    # at every node of the stage programs of seeded datasets and of random
    # programs with pairs it equals the table built from the
    # node's bounds, array for array (signed zeros included).  Ten datasets:
    # the last lexicographic stage is recorded unsolved, so four gave only
    # 70 stage nodes, where they gave 188 with it solved
    original = branch_and_bound.solve_standardized
    checked = []

    def checking(std, cfg, start, box):
        fresh = simplex._Box(box.lo, box.up)
        for name in simplex._Box.__slots__:
            got, want = getattr(box, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        checked.append(box.fixed.sum())
        return original(std, cfg, start, box)

    monkeypatch.setattr(branch_and_bound, "solve_standardized", checking)
    rng = np.random.default_rng(2113)
    for _ in range(10):
        ds = random_dataset(rng, max_n=12, max_dim=2)
        je = efficient_set(ds, cfg)
        pri = default_priority(ds.m, ds.s)
        for o in range(ds.n):
            closest_projection(je, o, pri, cfg)
    stage_nodes = len(checked)
    for _ in range(20):
        solve_milp(random_complementarity_lp(rng), cfg)
        solve_milp(random_complementarity_lp(rng, max_pairs=10), cfg)
    assert stage_nodes > 100 and len(checked) > stage_nodes + 100
    assert len(set(checked)) > 3  # roots and children several fixes deep
