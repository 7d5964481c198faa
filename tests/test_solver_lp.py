import itertools
from dataclasses import replace

import numpy as np
import pytest

from dea_closest import LinearProgram, SolverConfig, SolveStatus, solve_lp, solve_milp
from dea_closest.solver import Basis, branch_and_bound, simplex
from dea_closest.solver.model import FEAS_TOL, PIVOT_TOL
from dea_closest.solver.simplex import standardize

from dea_closest.returns_to_scale import _intercept_program

from conftest import (enumerate_lp_optimum, equality_twin, random_box_lp,
                      random_complementarity_lp, random_inequality_lp)


def test_unit_simplex_corner(cfg):
    # min x s.t. x + y = 1, 0 <= x,y <= 1
    lp = LinearProgram("min", [1.0, 0.0], [[1.0, 1.0]], ("=",), [1.0],
                       [0.0, 0.0], [1.0, 1.0])
    sol = solve_lp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.x == pytest.approx([0.0, 1.0], abs=1e-9)


def test_max_sense(cfg):
    lp = LinearProgram("max", [1.0, 2.0], [[1.0, 1.0]], ("<=",), [4.0],
                       [0.0, 0.0], [3.0, 3.0])
    sol = solve_lp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(7.0)  # y at its bound 3, x = 1
    assert sol.x == pytest.approx([1.0, 3.0])


def test_nonbasic_at_upper_bound(cfg):
    # the optimum needs a variable resting at its finite upper bound
    lp = LinearProgram("max", [1.0, 1.0], [[1.0, 2.0]], ("<=",), [10.0],
                       [0.0, 0.0], [2.0, 100.0])
    sol = solve_lp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.x == pytest.approx([2.0, 4.0])


def test_infeasible(cfg):
    lp = LinearProgram("min", [1.0, 1.0], [[1.0, 1.0]], ("=",), [-1.0],
                       [0.0, 0.0], [np.inf, np.inf])
    assert solve_lp(lp, cfg).status is SolveStatus.INFEASIBLE


def test_rows_apart_by_more_than_the_feasibility_tolerance_are_infeasible(cfg):
    # x = 1 and x = 1 + 1e-8 disagree by five times the phase-1 cut
    # FEAS_TOL * (1 + max|b|); a cut ten times wider once called this
    # program feasible and solved it at x = 1
    lp = LinearProgram("min", [1.0], [[1.0], [1.0]], ("=", "="), [1.0, 1.0 + 1e-8],
                       [0.0], [np.inf])
    assert solve_lp(lp, cfg).status is SolveStatus.INFEASIBLE


def test_unbounded(cfg):
    # min -x with x - y = 0 and no upper bounds
    lp = LinearProgram("min", [-1.0, 0.0], [[1.0, -1.0]], ("=",), [0.0],
                       [0.0, 0.0], [np.inf, np.inf])
    sol = solve_lp(lp, cfg)
    assert sol.status is SolveStatus.UNBOUNDED
    assert sol.objective == -np.inf


def cheapest_bound_objective(lp: LinearProgram) -> float:
    """Optimum of a program without rows: every variable sits at its cheapest
    bound, and one that has no such bound makes the program unbounded."""
    sign = 1.0 if lp.sense == "min" else -1.0
    total = 0.0
    for cj, lo, up in zip(sign * lp.c, lp.lower, lp.upper):
        if cj != 0.0:
            bound = lo if cj > 0 else up
            if not np.isfinite(bound):
                return -sign * np.inf
            total += cj * bound
    return sign * total


def cheapest_complementary_objective(lp: LinearProgram) -> float:
    """Optimum of a program without rows whose paired columns rest on a
    lower bound of zero: the best cheapest-bound objective over every choice
    of the member zeroed in each pair."""
    values = []
    for sides in itertools.product((0, 1), repeat=len(lp.complements)):
        upper = lp.upper.copy()
        upper[lp.complements[np.arange(len(sides)), list(sides)]] = 0.0
        values.append(cheapest_bound_objective(replace(lp, upper=upper, complements=None)))
    return min(values) if lp.sense == "min" else max(values)


@pytest.mark.parametrize("sense", ["min", "max"])
def test_programs_without_rows(sense, cfg):
    rng = np.random.default_rng(5)
    statuses = set()
    for _ in range(60):
        n = int(rng.integers(1, 6))
        c = rng.choice([-2.0, -0.5, 0.0, 1.0, 3.0], n)
        upper = rng.choice([-1.0, 0.0, 2.0, 5.0, np.inf], n)
        lower = np.minimum(rng.choice([-np.inf, -2.0, 0.0, 1.5], n), upper)
        pairs = rng.permutation(n)[:2 * (n // 2)].reshape(-1, 2)
        lower[pairs], upper[pairs] = 0.0, np.maximum(upper[pairs], 0.0)
        for complements, solve in ((None, solve_lp), (pairs, solve_milp)):
            lp = LinearProgram(sense, c, np.zeros((0, n)), (), [], lower, upper,
                               complements=complements)
            expected = cheapest_complementary_objective(lp)
            sol = solve(lp, cfg)
            if np.isinf(expected):
                assert sol.status is SolveStatus.UNBOUNDED
                assert sol.objective == expected
            else:
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.objective == pytest.approx(expected, abs=1e-12)
                assert np.all((sol.x >= lower) & (sol.x <= upper))
                assert not np.minimum(sol.x[lp.complements[:, 0]],
                                      sol.x[lp.complements[:, 1]]).any()
            statuses.add(sol.status)
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.UNBOUNDED}


def test_free_variable(cfg):
    # w free: min w s.t. w >= x - 5, x = 2  ->  w can go to -inf? no: w - x >= -5
    lp = LinearProgram("min", [1.0, 0.0],
                       [[1.0, -1.0], [0.0, 1.0]], (">=", "="), [-5.0, 2.0],
                       [-np.inf, 0.0], [np.inf, np.inf])
    sol = solve_lp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-3.0)


def test_equality_with_negative_rhs(cfg):
    lp = LinearProgram("min", [1.0, 0.0], [[-1.0, -1.0]], ("=",), [-2.0],
                       [0.0, 0.0], [5.0, 5.0])
    sol = solve_lp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_iteration_limit_reported():
    lp = LinearProgram("min", [1.0, 2.0, -1.0],
                       [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], ("=", "<="), [3.0, 1.0],
                       [0.0, 0.0, 0.0], [4.0, 4.0, 4.0])
    sol = solve_lp(lp, SolverConfig(max_iterations=1))
    assert sol.status is SolveStatus.ITERATION_LIMIT
    assert sol.x is None


def test_complementarity_pairs_rejected(cfg):
    lp = LinearProgram("min", [1.0, 1.0], [[1.0, 1.0]], ("=",), [1.0],
                       [0.0, 0.0], [1.0, 1.0], complements=[(0, 1)])
    with pytest.raises(ValueError):
        solve_lp(lp, cfg)


@pytest.mark.parametrize("drift,status", [(1e-5, SolveStatus.ITERATION_LIMIT),
                                          (1e-8, SolveStatus.OPTIMAL)])
def test_final_point_must_hold_its_bounds(cfg, monkeypatch, drift, status):
    # a phase-2 point pushed past an upper bound of 1 is no optimum; noise well
    # inside 1e-7 relative is still accepted
    lp = LinearProgram("min", [1.0, 1.0], [[1.0, 1.0]], ("=",), [1.0],
                       [0.0, 0.0], [1.0, 1.0])
    original = simplex._Simplex._iterate
    phases = []

    def drifting(self, c, *state):
        outcome, x = original(self, c, *state)
        phases.append(outcome)
        if len(phases) == 2:
            x = x.copy()
            x[int(np.argmax(x[:2]))] = 1.0 + drift
        return outcome, x

    monkeypatch.setattr(simplex._Simplex, "_iterate", drifting)
    assert solve_lp(lp, cfg).status is status


def test_dimension_mismatch_is_construction_error():
    with pytest.raises(ValueError):
        LinearProgram("min", [1.0, 2.0], [[1.0]], ("=",), [1.0], [0.0], [1.0])
    with pytest.raises(ValueError):
        LinearProgram("min", [1.0], [[1.0]], ("=",), [1.0], [2.0], [1.0])  # lower > upper
    with pytest.raises(ValueError):
        LinearProgram("min", [1.0], [[1.0]], ("??",), [1.0], [0.0], [1.0])
    pair = ("min", [1.0, 1.0], [[1.0, 1.0]], ("=",), [1.0])
    with pytest.raises(ValueError):
        LinearProgram(*pair, [0.0, 0.0], [1.0, 1.0], complements=[(0, 2)])  # no column 2
    with pytest.raises(ValueError):
        LinearProgram(*pair, [0.0, 0.0], [1.0, 1.0], complements=[(1, 1)])
    with pytest.raises(ValueError):
        LinearProgram(*pair, [-1.0, 0.0], [1.0, 1.0], complements=[(0, 1)])  # may go negative


def test_pairs_and_the_inverse_of_a_basis_are_keyword_only(cfg):
    # were pairs the eighth positional field, a 0/1 mask such as
    # [True, False, True, False] put there once read as the pairs
    # [[1, 0], [1, 0]]; a Basis given three arrays is as ambiguous
    args = ("min", [1.0] * 4, [[1.0] * 4], ("=",), [1.0], [0.0] * 4, [1.0] * 4)
    for eighth in ([True, False, True, False], [[0, 1]]):
        with pytest.raises(TypeError):
            LinearProgram(*args, eighth)
    assert LinearProgram(*args, complements=[[0, 1]]).complements.tolist() == [[0, 1]]
    record = solve_lp(LinearProgram(*args), cfg).basis
    with pytest.raises(TypeError):
        Basis(record.columns, record.x, record.inverse)
    with pytest.raises(TypeError):
        Basis(record.columns, record.x, record.inverse, record.source)
    resumed = Basis(record.columns, record.x, inverse=record.inverse, source=record.source)
    assert resumed.inverse is record.inverse and resumed.source is record.source


def one_row(**changes) -> LinearProgram:
    """min x0 + 2 x1 s.t. x0 + x1 = 1, x >= 0, with any field replaced."""
    fields = dict(sense="min", c=[1.0, 2.0], a=[[1.0, 1.0]], relations=("=",), b=[1.0],
                  lower=[0.0, 0.0], upper=[np.inf, np.inf])
    fields.update(changes)
    return LinearProgram(**fields)


@pytest.mark.parametrize("field,value", [
    ("c", [np.nan, 1.0]), ("c", [np.inf, 1.0]), ("c", [1.0, -np.inf]),
    ("a", [[np.nan, 1.0]]), ("a", [[1.0, np.inf]]), ("a", [[-np.inf, 1.0]]),
    ("b", [np.nan]), ("b", [np.inf]), ("b", [-np.inf]),
    ("lower", [np.nan, 0.0]), ("lower", [0.0, np.inf]),
    ("upper", [np.nan, np.inf]), ("upper", [-np.inf, np.inf]),
])
def test_nonfinite_values_are_rejected_by_name(field, value):
    # without the check, c = [nan, 1] solved to OPTIMAL with a NaN objective,
    # a NaN in a or b gave OPTIMAL with NaN in x, and b = [inf] read UNBOUNDED
    with pytest.raises(ValueError, match=rf"^{field} holds"):
        one_row(**{field: value})
    with pytest.raises(ValueError, match=rf"^{field} holds"):
        replace(one_row(), **{field: value})  # a derived program is validated in full


@pytest.mark.parametrize("pairs,kept", [
    ([[0, 1, 2], [3, 4, 5]], None),  # was reshaped into [[0, 1], [2, 3], [4, 5]]
    ([[0.5, 1.7]], None),  # was truncated to [[0, 1]]
    ([0, 1, 2], None),  # raised numpy's bare "cannot reshape"
    ([0, 1], None), ([[0, 1], [2]], None), ([[True, False]], None), ("01", None),
    (None, []), ([], []), ((), []), ([(0, 1)], [[0, 1]]),
    (np.array([[5, 0]], dtype=np.int32), [[5, 0]]),
])
def test_complements_are_integer_pairs_or_rejected_by_name(pairs, kept):
    args = ("min", [1.0] * 6, [[1.0] * 6], ("=",), [1.0], [0.0] * 6, [1.0] * 6)
    for make in (lambda: LinearProgram(*args, complements=pairs),
                 lambda: replace(LinearProgram(*args), complements=pairs)):
        if kept is None:
            with pytest.raises(ValueError, match="^complements must be"):
                make()
        else:
            lp = make()
            assert lp.complements.shape == (len(kept), 2) and lp.complements.tolist() == kept


def test_infinite_bounds_on_their_own_side_are_accepted(cfg):
    # min 2 x0 + x1 = 2 - x1 with x0 free: x1 climbs to its bound 5, x0 = -4
    sol = solve_lp(one_row(c=[2.0, 1.0], lower=[-np.inf, 0.0], upper=[np.inf, 5.0]), cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.x == pytest.approx([-4.0, 5.0]) and sol.objective == pytest.approx(-3.0)


def test_derived_program_shares_rows_and_solves_like_a_fresh_one(cfg):
    base = one_row()
    fresh = one_row(sense="max", c=[3.0, 1.0], upper=[0.25, np.inf])
    derived = replace(base, sense="max", c=[3.0, 1.0], upper=[0.25, np.inf])
    assert derived.a is base.a and derived.b is base.b and derived.relations is base.relations
    assert derived.lower is base.lower
    assert derived.complements is base.complements
    assert base.sense == "min" and base.upper[0] == np.inf  # the original is untouched
    a, b = solve_lp(derived, cfg), solve_lp(fresh, cfg)
    assert a.status is b.status is SolveStatus.OPTIMAL
    assert a.objective == b.objective and np.array_equal(a.x, b.x)
    with pytest.raises(ValueError, match="2 columns, objective has 1"):
        replace(base, c=[1.0])  # objective of the wrong size
    with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
        replace(base, lower=[2.0, 0.0], upper=[1.0, 1.0])
    with pytest.raises(ValueError, match="sense must be"):
        replace(base, sense="maximize")
    with pytest.raises(ValueError, match="rhs has 2"):
        replace(base, b=[1.0, 1.0])  # right-hand side of the wrong length


def test_system_derived_with_another_matrix_solves_like_that_matrix_program(cfg):
    # max 1.05 x1 + x2 over one "<=" row.  A system derived from the 1e10
    # row's with the [2, 1] row's matrix once priced with the 1e10 row's |a|,
    # whose threshold passed x2's reduced cost at x = (2, 0) as zero: it
    # stopped there with 2.1
    def program(row):
        return LinearProgram("max", [1.05, 1.0], [row], ("<=",), [4.0], [0.0, 0.0],
                             [np.inf, np.inf])

    own = program([2.0, 1.0])
    derived = replace(standardize(program([1e10, 1e10])), a=standardize(own).a)
    got, want = solve_lp(derived, cfg), solve_lp(own, cfg)
    assert got.status is want.status is SolveStatus.OPTIMAL
    assert got.x.tolist() == want.x.tolist() == [0.0, 4.0]
    assert got.objective == want.objective == 4.0
    assert got.iterations == want.iterations
    assert np.array_equal(got.basis.columns, want.basis.columns)
    assert np.array_equal(got.priced_out, want.priced_out)


@pytest.mark.parametrize("column", [-2, -1, 2])
def test_warm_start_from_a_column_outside_the_system_starts_cold(cfg, column):
    # a negative column used to index the matrix from its end, so the solve
    # returned that basis (Solution.basis.columns == [-2])
    lp = one_row()
    cold = solve_lp(lp, cfg)
    warm = solve_lp(lp, cfg, warm_start=Basis(np.array([column]), np.zeros(2)))
    assert warm.status is cold.status is SolveStatus.OPTIMAL
    assert np.array_equal(warm.basis.columns, cold.basis.columns)
    assert warm.basis.columns.min() >= 0
    assert np.array_equal(warm.x, cold.x) and warm.iterations == cold.iterations


def test_singular_warm_start_falls_back_to_a_cold_start(monkeypatch, cfg):
    # columns 0 and 1 are equal, so a basis built by hand from both is
    # singular: the warm attempt has no point to resume from, and the
    # program is solved cold, to the cold solve's answer
    lp = LinearProgram("min", [1.0, 2.0, 3.0], [[1.0, 1.0, 1.0], [2.0, 2.0, 1.0]], ("=", "="),
                       [2.0, 3.0], [0.0] * 3, [np.inf] * 3)
    cold = solve_lp(lp, cfg)
    runs = []
    run_cold = simplex._Simplex._run_cold

    def counting(self, c):
        runs.append(self)
        return run_cold(self, c)

    monkeypatch.setattr(simplex._Simplex, "_run_cold", counting)
    warm = solve_lp(lp, cfg, warm_start=Basis(np.array([0, 1]), np.array([0.5, 0.5, 1.0])))
    assert len(runs) == 1
    assert warm.status is cold.status is SolveStatus.OPTIMAL and cold.objective == 4.0
    assert np.array_equal(warm.x, cold.x) and warm.iterations == cold.iterations


def test_warm_solve_without_a_blocking_row_is_solved_cold(monkeypatch, cfg):
    # a warm primal loop that finds no blocking row certifies nothing (a
    # returns-to-scale stage started at lambda near 1e15 found none on a
    # bounded program): the cold solve gives the answer, and it still finds
    # a ray where there is one
    original = simplex._Simplex._iterate

    def no_blocking_row(self, c, a_ext, *state):
        outcome, x = original(self, c, a_ext, *state)
        if a_ext is self.a:  # the warm path; a cold solve iterates over a copy
            return SolveStatus.UNBOUNDED, None
        return outcome, x

    lp = one_row()
    cold = solve_lp(lp, cfg)
    unbounded = LinearProgram("min", [-1.0, 0.0], [[1.0, -1.0]], ("=",), [0.0],
                              [0.0, 0.0], [np.inf, np.inf])
    monkeypatch.setattr(simplex._Simplex, "_iterate", no_blocking_row)
    warm = solve_lp(lp, cfg, warm_start=cold.basis)
    assert warm.status is SolveStatus.OPTIMAL and np.array_equal(warm.x, cold.x)
    assert warm.iterations == cold.iterations  # the start is optimal: no warm pivot
    ray = solve_lp(unbounded, cfg, warm_start=Basis(np.array([1]), np.zeros(2)))
    assert ray.status is SolveStatus.UNBOUNDED and ray.objective == -np.inf


def test_record_from_another_matrix_is_factorized_afresh(monkeypatch, cfg):
    # a record names the standardized matrix it was gathered from.  A solve
    # over that very array (a derived program shares it) resumes from a copy
    # of the record's inverse; one over another array of the same shape and
    # values factorizes its own basic columns before its first pivot.  The
    # record's inverse is the fresh factorization of its matrix, so both
    # take the same pivots to the same point
    lp = long_box_lp(np.random.default_rng(99))
    record = solve_lp(lp, cfg).basis
    assert record.source is lp.a and record.inverse is not None
    events = []
    refactor, exchange = simplex._Simplex._refactor, simplex._Simplex._exchange

    def refactoring(self, b_mat):
        events.append("refactor")
        return refactor(self, b_mat)

    def exchanging(self, *args):
        events.append("pivot")
        return exchange(self, *args)

    monkeypatch.setattr(simplex._Simplex, "_refactor", refactoring)
    monkeypatch.setattr(simplex._Simplex, "_exchange", exchanging)
    c = -lp.c
    same = solve_lp(replace(lp, c=c), cfg, warm_start=record)
    assert "pivot" in events and "refactor" not in events[:events.index("pivot")]
    events.clear()
    twin = LinearProgram("min", c, lp.a.copy(), lp.relations, lp.b, lp.lower, lp.upper)
    other = solve_lp(twin, cfg, warm_start=record)
    assert events[0] == "refactor" and "pivot" in events
    assert same.status is other.status is SolveStatus.OPTIMAL
    assert same.iterations == other.iterations and np.array_equal(same.x, other.x)
    assert same.basis.source is lp.a and other.basis.source is twin.a


def test_matches_enumeration_on_random_lps(cfg):
    rng = np.random.default_rng(4242)
    feasible = 0
    for _ in range(60):
        lp = random_box_lp(rng)
        sol = solve_lp(lp, cfg)
        expected = enumerate_lp_optimum(lp)
        if expected is None:
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            feasible += 1
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-7)
    assert feasible > 20


def test_matches_enumeration_on_random_inequality_lps(cfg):
    # the slack start keeps an inequality row's slack basic when the row's
    # residual at the resting point (every variable at its lower bound) has
    # the slack's sign, and gives the row an artificial otherwise; both occur
    rng = np.random.default_rng(5151)
    feasible = 0
    outcomes = set()
    for _ in range(60):
        lp = random_inequality_lp(rng)
        resid = lp.b - lp.a @ lp.lower
        for i, rel in enumerate(lp.relations):
            if rel != "=":
                outcomes.add(bool(resid[i] * (1.0 if rel == "<=" else -1.0) >= 0))
        sol = solve_lp(lp, cfg)
        expected = enumerate_lp_optimum(equality_twin(lp))
        if expected is None:
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            feasible += 1
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-7)
    assert feasible > 20
    assert outcomes == {True, False}


def test_warm_start_after_tightening_a_basic_bound(monkeypatch, cfg):
    # a branch-and-bound child: the random programs above with one bound of
    # a basic variable tightened, resumed from the parent's final basis.  A
    # bound the parent point still meets leaves it primal feasible (primal
    # phase 2 only); one it breaks leaves it dual feasible (dual simplex),
    # and sometimes no point meets it (infeasibility certified by the dual)
    paths = []
    original_dual = simplex._Simplex._dual_loop
    original_cold = simplex._Simplex._run_cold

    def dual(self, *args):
        before = self.iterations
        outcome = original_dual(self, *args)
        paths.append("certified" if outcome is SolveStatus.INFEASIBLE
                     else "dual" if self.iterations > before else "primal")
        return outcome

    def cold(self, *args):
        paths.append("cold")
        return original_cold(self, *args)

    monkeypatch.setattr(simplex._Simplex, "_dual_loop", dual)
    monkeypatch.setattr(simplex._Simplex, "_run_cold", cold)

    seen = set()
    for seed, generate, twin in ((4242, random_box_lp, lambda lp: lp),
                                 (5151, random_inequality_lp, equality_twin)):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            lp = generate(rng)
            parent = solve_lp(lp, cfg)
            if parent.status is not SolveStatus.OPTIMAL:
                continue
            cols = parent.basis.columns
            inner = [j for j in cols[cols < lp.n_vars]
                     if lp.lower[j] + 1e-6 < parent.x[j] < lp.upper[j] - 1e-6]
            if not inner:
                continue
            j = int(rng.choice(inner))
            lower, upper = lp.lower.copy(), lp.upper.copy()
            if rng.integers(3) == 0:  # a bound the parent point still meets
                upper[j] = (parent.x[j] + upper[j]) / 2.0
            else:  # a bound it breaks, anywhere up to the far end of the box
                cut = rng.uniform(0.05, 1.0)
                if rng.integers(2):
                    upper[j] = parent.x[j] - cut * (parent.x[j] - lower[j])
                else:
                    lower[j] = parent.x[j] + cut * (upper[j] - parent.x[j])
            child = LinearProgram(lp.sense, lp.c, lp.a, lp.relations, lp.b, lower, upper)

            paths.clear()
            warm = solve_lp(child, cfg, warm_start=parent.basis)
            assert paths and paths[-1] != "cold", "the warm start fell back to a cold solve"
            seen.add(paths[0])
            cold_sol = solve_lp(child, cfg)
            expected = enumerate_lp_optimum(twin(child))
            assert warm.status is cold_sol.status
            if expected is None:
                assert warm.status is SolveStatus.INFEASIBLE
            else:
                assert warm.status is SolveStatus.OPTIMAL
                assert warm.objective == pytest.approx(expected, abs=1e-7)
                assert warm.objective == pytest.approx(cold_sol.objective, abs=1e-7)
    assert seen == {"primal", "dual", "certified"}


def test_slack_start_needs_no_pivot(cfg):
    # every row's slack absorbs its rhs at the origin, so the slack basis is
    # already feasible and, with nothing to price, already optimal
    a = np.array([[1.0, 2.0, -1.0, 0.5], [-1.0, 1.0, 3.0, 1.0], [2.0, -1.0, 1.0, 1.0]])
    lp = LinearProgram("max", np.zeros(4), a, ("<=",) * 3, [4.0, 1.0, 2.5],
                       np.zeros(4), np.full(4, 5.0))
    sol = solve_lp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.iterations == 0
    assert sol.x == pytest.approx(np.zeros(4))


def test_homogeneous_programs_take_no_phase_1_pivot(monkeypatch, cfg):
    # b = 0 with every column resting at zero (boxed at [0, u] or pinned at
    # 0) starts each artificial at zero, which is already the phase-1
    # optimum: the cold solve iterates phase 2 alone and still finds the optimum
    rng = np.random.default_rng(7070)
    costs = []
    iterate = simplex._Simplex._iterate

    def recording(self, c, *state):
        costs.append(c)
        return iterate(self, c, *state)

    monkeypatch.setattr(simplex._Simplex, "_iterate", recording)
    equality_rows = 0
    for _ in range(40):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, min(4, n - 1) + 1))
        a = np.round(rng.uniform(-3, 3, (m, n)), 2)
        upper = np.round(rng.uniform(0.5, 6, n), 2)
        upper[rng.uniform(size=n) < 0.2] = 0.0
        rels = tuple(str(rng.choice(["=", "=", "<=", ">="])) for _ in range(m))
        c = np.round(rng.uniform(-5, 5, n), 2)
        lp = LinearProgram(str(rng.choice(["min", "max"])), c, a, rels, np.zeros(m),
                           np.zeros(n), upper)
        equality_rows += rels.count("=")
        costs.clear()
        sol = solve_lp(lp, cfg)
        std = standardize(lp)
        assert len(costs) == 1 and np.array_equal(costs[0][:std.c.size], std.c)  # phase 2's
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(enumerate_lp_optimum(equality_twin(lp)), abs=1e-7)
    assert equality_rows > 20


def test_intercept_programs_pivot_budget(eight_dmu, cfg):
    # the n+2-row multiplier form with one artificial per row cost 172 pivots
    # over these 16 programs; the m+s+1-row dual, its ">=" rows started from
    # their slacks, must take at most half of that
    total = 0
    for o in range(eight_dmu.n):
        for sense in ("max", "min"):
            lp = _intercept_program(eight_dmu, eight_dmu.x[o], eight_dmu.y[o], sense)
            total += solve_lp(lp, cfg).iterations
    assert total <= 172 // 2


def test_returned_point_is_feasible(cfg):
    rng = np.random.default_rng(99)
    for _ in range(40):
        lp = random_box_lp(rng)
        sol = solve_lp(lp, cfg)
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        assert np.all(sol.x >= lp.lower - FEAS_TOL)
        assert np.all(sol.x <= lp.upper + FEAS_TOL)
        assert np.abs(lp.a @ sol.x - lp.b).max() < FEAS_TOL


def test_optimality_certificate(cfg):
    """At the final basis no nonbasic variable has an improving reduced cost
    beyond the (dual-scaled) pivot tolerance."""
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(30):
        lp = random_box_lp(rng)
        sol = solve_lp(lp, cfg)
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        std = standardize(lp)
        basis = sol.basis.columns
        b_mat = std.a[:, basis]
        y = np.linalg.solve(b_mat.T, std.c[basis])
        d = std.c - std.a.T @ y
        dtol = PIVOT_TOL * (1.0 + np.abs(std.a).T @ np.abs(y)) + 1e-9
        for j in range(lp.n_vars):  # structural columns; slack positions not reported
            if j in basis:
                continue
            lo_j, up_j = std.lower[j], std.upper[j]
            if lo_j == up_j:
                continue
            xj = sol.x[j]
            at_lower = np.isfinite(lo_j) and abs(xj - lo_j) <= 1e-7
            at_upper = np.isfinite(up_j) and abs(xj - up_j) <= 1e-7
            if at_lower and not at_upper:
                assert d[j] >= -dtol[j]
            elif at_upper and not at_lower:
                assert d[j] <= dtol[j]
            elif not at_lower and not at_upper and not np.isfinite(lo_j) and not np.isfinite(up_j):
                assert abs(d[j]) <= dtol[j]
        checked += 1
    assert checked > 10


@pytest.mark.parametrize("tilt", [1e-12, -1e-12])
def test_prices_within_the_threshold_price_nothing_out(eight_dmu, cfg, tilt):
    # one convexity row over the eight_dmu columns, each costing
    # coef . (x_j, y_j, 1) for the face x - y + 3 = 0 through DMU2, DMU3 and
    # DMU4 tilted by 1e-12 about DMU3: one of those three is basic and the
    # other two price within the threshold, so only the DMUs off the face
    # are priced out
    coef = np.array([1.0, -1.0 - tilt, 3.0 + 6.0 * tilt])
    c = np.column_stack([eight_dmu.x, eight_dmu.y, np.ones(8)]) @ coef
    lp = LinearProgram("min", c, np.ones((1, 8)), ("=",), [1.0], np.zeros(8), np.full(8, np.inf))
    sol = solve_lp(lp, cfg)
    assert sol.basis.columns[0] in (1, 2, 3)
    assert sol.priced_out.tolist() == [True, False, False, False, True, True, True, True]


@pytest.mark.parametrize("c1, flagged", [(1.0, True), (0.5, False), (-1.0, True)])
def test_priced_out_reads_the_bound_a_column_rests_on(cfg, c1, flagged):
    # max c1 x1 + x2 + c3 x3 over x1 + 2 x2 <= 10, x1 in [0, 2], x2 in
    # [0, 100], x3 fixed at 1.  x2 is basic at the row price 1/2; x1 rests at
    # its upper bound held by a negative reduced cost when c1 = 1, at its
    # lower bound held by a positive one when c1 = -1, and is priced at zero
    # when c1 = 1/2.  The fixed x3 rests at its lower bound: raising it would
    # pay, so it is not priced out, and lowering c3 below zero prices it out
    for c3, fixed_flag in ((1.0, False), (-1.0, True)):
        lp = LinearProgram("max", [c1, 1.0, c3], [[1.0, 2.0, 0.0]], ("<=",), [10.0],
                           [0.0, 0.0, 1.0], [2.0, 100.0, 1.0])
        sol = solve_lp(lp, cfg)
        assert 1 in sol.basis.columns
        assert sol.priced_out.tolist() == [flagged, False, fixed_flag]
        if c1 != 0.5:
            assert sol.x[0] == (2.0 if c1 > 0 else 0.0)


def test_priced_out_is_none_without_an_lp_inverse(cfg):
    # a redundant row keeps its artificial basic, and a MILP reports no prices
    lp = LinearProgram("min", [1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], ("=", "="), [1.0, 1.0],
                       [0.0, 0.0], [np.inf, np.inf])
    sol = solve_lp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL and sol.priced_out is None
    milp = solve_milp(random_complementarity_lp(np.random.default_rng(3)), cfg)
    assert milp.basis is not None and milp.priced_out is None


@pytest.mark.parametrize("make", [random_box_lp, random_inequality_lp])
def test_forcing_a_priced_out_column_off_its_bound_worsens_the_optimum(cfg, make):
    # every flagged column is nonbasic at a bound; moving it halfway into its
    # box makes the program strictly worse (or infeasible), while basic
    # columns are never flagged
    rng = np.random.default_rng(2718)
    flagged = 0
    for _ in range(40):
        lp = make(rng)
        sol = solve_lp(lp, cfg)
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        sign = 1.0 if lp.sense == "min" else -1.0
        basic = sol.basis.columns[sol.basis.columns < lp.n_vars]
        assert not sol.priced_out[basic].any()
        for j in np.flatnonzero(sol.priced_out):
            lower, upper = lp.lower.copy(), lp.upper.copy()
            half = 0.5 * (upper[j] - lower[j])
            if sol.x[j] == lp.lower[j]:
                lower[j] += half
            else:
                assert sol.x[j] == lp.upper[j]
                upper[j] -= half
            forced = solve_lp(LinearProgram(lp.sense, lp.c, lp.a, lp.relations, lp.b,
                                            lower, upper), cfg)
            assert forced.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
            if forced.status is SolveStatus.OPTIMAL:
                assert sign * (forced.objective - sol.objective) > 1e-9
            flagged += 1
    assert flagged > 40


def test_determinism(cfg):
    rng = np.random.default_rng(7)
    for _ in range(10):
        lp = random_box_lp(rng)
        a = solve_lp(lp, cfg)
        b = solve_lp(lp, cfg)
        assert a.status is b.status
        assert a.iterations == b.iterations
        if a.status is SolveStatus.OPTIMAL:
            assert np.array_equal(a.x, b.x)
            assert a.objective == b.objective


def long_box_lp(rng: np.random.Generator, rows: int = 20, cols: int = 40) -> LinearProgram:
    """Feasible equality-form LP with finite box bounds, large enough that
    one solve takes more basis exchanges than the refactorization period."""
    a = np.round(rng.uniform(-3, 3, (rows, cols)), 2)
    lower = np.round(rng.uniform(-5, 0, cols), 2)
    upper = lower + np.round(rng.uniform(0.5, 6, cols), 2)
    b = a @ (lower + rng.uniform(0, 1, cols) * (upper - lower))
    c = np.round(rng.uniform(-5, 5, cols), 2)
    return LinearProgram("min", c, a, ("=",) * rows, b, lower, upper)


def record_updates(monkeypatch) -> list[int]:
    """Eta updates held by the inverse before each basis exchange."""
    held = []
    original = simplex._Simplex._exchange

    def exchange(self, *args):
        held.append(self.updates)
        return original(self, *args)

    monkeypatch.setattr(simplex._Simplex, "_exchange", exchange)
    return held


def test_updated_inverse_crosses_the_refactorization_period(monkeypatch, cfg):
    # the same optima as HiGHS and as a solve that factorizes every basis
    # from scratch, on programs long enough to refactorize on schedule
    linprog = pytest.importorskip("scipy.optimize").linprog
    held = record_updates(monkeypatch)
    rng = np.random.default_rng(2718)
    programs = [long_box_lp(rng) for _ in range(6)]
    updated = [solve_lp(lp, cfg) for lp in programs]
    assert max(held) == simplex._REFACTOR_PERIOD - 1  # refactorized on schedule, never later
    monkeypatch.setattr(simplex, "_REFACTOR_PERIOD", 1)
    held.clear()
    for lp, sol in zip(programs, updated):
        fresh = solve_lp(lp, cfg)
        res = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, bounds=list(zip(lp.lower, lp.upper)),
                      method="highs")
        assert sol.status is fresh.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(fresh.objective, rel=1e-9, abs=1e-9)
        assert sol.objective == pytest.approx(res.fun, rel=1e-7, abs=1e-7)
        assert np.abs(lp.a @ sol.x - lp.b).max() < 1e-9 * (1.0 + np.abs(lp.b).max())
        # the inverse handed on is a fresh factorization, not an updated one
        matrix = sol.basis.source[:, sol.basis.columns]
        assert np.array_equal(sol.basis.inverse, np.linalg.inv(matrix))
    assert set(held) == {0}


def test_short_refactorization_period_matches_enumeration(monkeypatch, cfg):
    # with a period of two, nearly every solve refactorizes on schedule
    held = record_updates(monkeypatch)
    monkeypatch.setattr(simplex, "_REFACTOR_PERIOD", 2)
    rng = np.random.default_rng(4242)
    feasible = 0
    for _ in range(60):
        lp = random_box_lp(rng)
        sol = solve_lp(lp, cfg)
        expected = enumerate_lp_optimum(lp)
        if expected is None:
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            feasible += 1
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-7)
    assert feasible > 20
    assert max(held) == 1


def drift_updates(monkeypatch, factor: float) -> list[int]:
    """Scale the inverse by ``factor`` after every eta update, as rounding
    drift would if it were far worse; returns the list the updates are
    counted in."""
    drifted = []
    original = simplex._Simplex._exchange

    def drifting(self, *args):
        original(self, *args)
        if self.updates:
            self.b_inv *= factor
            drifted.append(1)

    monkeypatch.setattr(simplex._Simplex, "_exchange", drifting)
    return drifted


def test_residual_guard_on_an_updated_inverse_refactorizes(monkeypatch, cfg):
    # every updated inverse is off by 0.1%, far past the 1e-6 residual guard;
    # each guard that fires on one factorizes the basis afresh, so cold and
    # warm solves still end at the optimum
    rng = np.random.default_rng(99)
    programs = [random_box_lp(rng) for _ in range(40)]
    milps = [random_complementarity_lp(rng) for _ in range(20)]
    expected = [solve_lp(lp, cfg) for lp in programs] + [solve_milp(lp, cfg) for lp in milps]

    guarded = []
    original = simplex._Simplex._refactor

    def refactor(self, b_mat):
        guarded.append(self.updates)
        original(self, b_mat)

    drift_updates(monkeypatch, 1.0 + 1e-3)
    monkeypatch.setattr(simplex._Simplex, "_refactor", refactor)
    got = [solve_lp(lp, cfg) for lp in programs] + [solve_milp(lp, cfg) for lp in milps]
    assert any(guarded)
    for sol, want in zip(got, expected):
        assert sol.status is want.status
        if want.status is SolveStatus.OPTIMAL:
            assert sol.objective == pytest.approx(want.objective, abs=1e-9)


def test_drift_that_survives_a_fresh_factorization_is_a_solver_limit(monkeypatch, cfg):
    # a fresh factorization as far off as the updated one: the guard fires
    # again, and the solve reports ITERATION_LIMIT, never a point
    original = simplex._Simplex._refactor

    def refactor(self, b_mat):
        original(self, b_mat)
        if self.b_inv is not None:
            self.b_inv *= 1.0 + 1e-3

    drifted = drift_updates(monkeypatch, 1.0 + 1e-3)
    monkeypatch.setattr(simplex._Simplex, "_refactor", refactor)
    rng = np.random.default_rng(4242)
    limited = 0
    for _ in range(40):
        drifted.clear()
        sol = solve_lp(random_box_lp(rng), cfg)
        if drifted:  # bound flips alone leave the exact starting inverse in place
            assert sol.status is SolveStatus.ITERATION_LIMIT
            limited += 1
    assert limited > 20


def test_shared_parent_basis_is_never_mutated(monkeypatch, cfg):
    # both children of a node resume from one parent record and copy its
    # inverse; the record's arrays are read-only
    starts = []
    original = branch_and_bound.solve_standardized

    def recording(std, cfg, start, box):
        if start is not None:
            starts.append((start, start.columns.copy(), start.x.copy(), start.inverse.copy()))
        return original(std, cfg, start, box)

    monkeypatch.setattr(branch_and_bound, "solve_standardized", recording)
    rng = np.random.default_rng(31)
    for _ in range(30):
        solve_milp(random_complementarity_lp(rng), cfg)
    uses = {}
    for start, *_ in starts:
        uses[id(start)] = uses.get(id(start), 0) + 1
    assert max(uses.values()) == 2
    for start, columns, x, inverse in starts:
        assert np.array_equal(start.columns, columns)
        assert np.array_equal(start.x, x)
        assert np.array_equal(start.inverse, inverse)
        with pytest.raises(ValueError):
            start.inverse[0, 0] = 0.0


def test_nan_point_is_a_solver_limit(monkeypatch, cfg):
    # a fresh inverse that comes back all NaN yields a NaN basic point; every
    # comparison with NaN is False, so the residual and bound checks are
    # written to fail on it, and the solve reports a limit, never that point
    lp = LinearProgram("min", [1.0, 2.0], [[1.0, 1.0]], ("=",), [1.0],
                       [0.0, 0.0], [np.inf, np.inf])
    original = simplex._Simplex._refactor

    def refactor(self, b_mat):
        original(self, b_mat)
        self.b_inv = np.full(b_mat.shape, np.nan)

    monkeypatch.setattr(simplex._Simplex, "_refactor", refactor)
    sol = solve_lp(lp, cfg)
    assert sol.status is SolveStatus.ITERATION_LIMIT
    solver = simplex._Simplex(standardize(lp), cfg)
    assert not solver._holds_bounds(np.array([np.nan, 0.0]))
    assert solver._holds_bounds(np.array([1.0, 0.0]))
