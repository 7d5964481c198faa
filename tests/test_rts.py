import numpy as np
import pytest

from dea_closest import (AnalysisError, RtsBounds, RtsLabel, Solution, SolverLimitError,
                         SolveStatus, classify_rts, closest_projection, closest_rts,
                         default_priority, efficient_set, intercept_bounds, returns_to_scale)
from dea_closest.report import RunConfig, analyze
from dea_closest.solver import solve_lp
from dea_closest.solver.simplex import standardize

from conftest import make_dataset, multiplier_intercept_program, random_dataset, with_dmu


@pytest.fixture(scope="module")
def je8(eight_dmu, cfg):
    return efficient_set(eight_dmu, cfg)


@pytest.fixture(scope="module")
def je4(four_dmu, cfg):
    return efficient_set(four_dmu, cfg)


def point(ds, o):
    return ds.x[o], ds.y[o]


def test_eight_dmu_efficient_labels(eight_dmu, cfg):
    expected = [RtsLabel.IRS, RtsLabel.CRS, RtsLabel.DRS, RtsLabel.DRS]
    for o, label in enumerate(expected):
        b = intercept_bounds(eight_dmu, *point(eight_dmu, o), cfg)
        assert classify_rts(b, cfg) is label


def test_four_dmu_efficient_labels(four_dmu, cfg):
    expected = [RtsLabel.IRS, RtsLabel.CRS, RtsLabel.DRS]
    for o, label in enumerate(expected):
        b = intercept_bounds(four_dmu, *point(four_dmu, o), cfg)
        assert classify_rts(b, cfg) is label


def test_intercept_values_against_closed_form(eight_dmu, cfg):
    # hand-derived from the frontier segments y = 3x - 1 and y = x + 3 under
    # the normalization (input price) * (point input) = 1
    b1 = intercept_bounds(eight_dmu, *point(eight_dmu, 0), cfg)
    assert b1.upper == pytest.approx(-1 / 3, abs=1e-7)
    assert b1.stage_count == 1  # negative maximum already settles the label

    b2 = intercept_bounds(eight_dmu, *point(eight_dmu, 1), cfg)
    assert b2.upper == pytest.approx(3 / 2, abs=1e-7)
    assert b2.lower == pytest.approx(-1 / 6, abs=1e-7)
    assert b2.stage_count == 2
    assert b2.lower <= 0.0 <= b2.upper  # multiplier cone contains a zero intercept

    b3 = intercept_bounds(eight_dmu, *point(eight_dmu, 2), cfg)
    assert b3.upper == pytest.approx(1.0, abs=1e-7)
    assert b3.lower == pytest.approx(1.0, abs=1e-7)

    b4 = intercept_bounds(eight_dmu, *point(eight_dmu, 3), cfg)
    assert b4.upper == np.inf  # endpoint: arbitrarily steep supports exist
    assert b4.lower == pytest.approx(3 / 5, abs=1e-7)


def test_facet_interior_point(eight_dmu, cfg):
    # (4/3, 3) is interior to the DMU1-DMU2 segment; the unique supporting
    # line y = 3x - 1 normalizes to an intercept of -1/4
    b = intercept_bounds(eight_dmu, np.array([4 / 3]), np.array([3.0]), cfg)
    assert b.upper == pytest.approx(-0.25, abs=1e-7)
    assert classify_rts(b, cfg) is RtsLabel.IRS


def test_classify_sign_rules(cfg):
    assert classify_rts(RtsBounds(-0.25, -np.inf, 1), cfg) is RtsLabel.IRS
    assert classify_rts(RtsBounds(1.5, -0.2, 2), cfg) is RtsLabel.CRS
    assert classify_rts(RtsBounds(np.inf, 0.6, 2), cfg) is RtsLabel.DRS
    assert classify_rts(RtsBounds(0.0, 0.0, 2), cfg) is RtsLabel.CRS
    # values below the zero threshold count as zero
    assert classify_rts(RtsBounds(-1e-9, -1.0, 2), cfg) is RtsLabel.CRS
    assert classify_rts(RtsBounds(1.0, 1e-9, 2), cfg) is RtsLabel.CRS


@pytest.mark.parametrize("o,label", [
    (4, RtsLabel.DRS),   # projects onto DMU4
    (5, RtsLabel.IRS),   # projects onto DMU1
    (6, RtsLabel.IRS),   # interior of DMU1-DMU2
    (7, RtsLabel.IRS),
])
def test_eight_dmu_crts(eight_dmu, je8, cfg, o, label):
    r = closest_rts(je8, o, default_priority(1, 1), cfg)
    assert r.label is label
    assert r.dmu == o


def test_crts_of_efficient_unit_is_its_own_rts(eight_dmu, je8, cfg):
    for o in range(4):
        r = closest_rts(je8, o, default_priority(1, 1), cfg)
        direct = classify_rts(intercept_bounds(eight_dmu, *point(eight_dmu, o), cfg), cfg)
        assert r.label is direct
        assert r.projection.stages == ()


def test_motivating_example_crts(four_dmu, je4, cfg):
    r = closest_rts(je4, 3, default_priority(1, 1), cfg)
    assert r.label is RtsLabel.IRS
    # supporting line through A and B: y = 3x - 4, normalized at x = 8/3
    assert r.bounds.upper == pytest.approx(-0.5, abs=1e-6)


def test_bounds_ordering_when_both_finite(eight_dmu, four_dmu, cfg):
    for ds in (eight_dmu, four_dmu):
        je = efficient_set(ds, cfg)
        for o in je.indices:
            b = intercept_bounds(ds, *point(ds, o), cfg)
            if b.stage_count == 2 and np.isfinite(b.lower) and np.isfinite(b.upper):
                assert b.lower <= b.upper + 1e-9


def test_virtual_point_equivalence(eight_dmu, je8, cfg):
    # appending the projection as a DMU must not change its classification
    for o in (4, 5, 6, 7):
        r = closest_rts(je8, o, default_priority(1, 1), cfg)
        ext = with_dmu(eight_dmu, "virtual", r.projection.target_inputs,
                       r.projection.target_outputs)
        b = intercept_bounds(ext, r.projection.target_inputs,
                             r.projection.target_outputs, cfg)
        assert classify_rts(b, cfg) is r.label


def test_interior_point_rejected(eight_dmu, cfg):
    with pytest.raises(AnalysisError):
        intercept_bounds(eight_dmu, np.array([4.0]), np.array([2.0]), cfg)


def test_every_frontier_point_gets_one_label(cfg):
    rng = np.random.default_rng(733)
    ds = random_dataset(rng, max_n=10)
    je = efficient_set(ds, cfg)
    pri = default_priority(ds.m, ds.s)
    labels = set()
    for o in range(ds.n):
        r = closest_rts(je, o, pri, cfg)
        assert isinstance(r.label, RtsLabel)
        labels.add(r.label)
    assert labels  # at least one classification produced


def test_statuses_map_by_duality(cfg):
    ds = make_dataset([[1], [2]], [[1], [2]], names=["A", "B"])
    # (3, 2) lies right of the frontier's end: no hyperplane supports it, and
    # the multiplier program and its dual are both infeasible there
    with pytest.raises(AnalysisError, match="not on the efficient frontier"):
        intercept_bounds(ds, np.array([3.0]), np.array([2.0]), cfg)
    # at the endpoint B the supports run from w0 = 0 up to vertical
    b = intercept_bounds(ds, np.array([2.0]), np.array([2.0]), cfg)
    assert b == RtsBounds(np.inf, 0.0, 2)
    # (4, 1) is dominated by A: the dual of the first stage is unbounded
    with pytest.raises(AnalysisError, match="not on the efficient frontier"):
        intercept_bounds(ds, np.array([4.0]), np.array([1.0]), cfg)


def test_closest_rts_failure_names_the_dmu(eight_dmu, je8, cfg, monkeypatch):
    def out_of_pivots(lp, cfg):
        return Solution(SolveStatus.ITERATION_LIMIT, float("nan"), None)

    monkeypatch.setattr(returns_to_scale, "solve_lp", out_of_pivots)
    with pytest.raises(SolverLimitError, match="^returns to scale of DMU 'DMU6': intercept "
                                               "maximization hit the iteration limit$"):
        closest_rts(je8, 5, default_priority(1, 1), cfg)


def test_rts_labels_do_not_depend_on_data_magnitude():
    rng = np.random.default_rng(2)
    x = np.round(rng.uniform(1, 100, (15, 2)), 3)
    y = np.round(rng.uniform(1, 100, (15, 2)), 3)

    def labels(scale):
        report = analyze(make_dataset(x * scale, y * scale), RunConfig("scaled.csv"))
        return [rec.rts_label for rec in report.records]

    # the multiplier-form maximization hit the iteration limit at x1e5
    assert labels(1e5) == labels(1.0) == labels(1e-3)


def highs_intercept(lp, linprog):
    """Objective of a multiplier-form intercept program by HiGHS, or None
    when HiGHS finds it infeasible; +-inf when unbounded.  Presolve is off:
    with it, HiGHS calls some unbounded maximizations infeasible although
    the minimization of the same program has an optimum."""
    eq = np.array([rel == "=" for rel in lp.relations])
    sign = 1.0 if lp.sense == "min" else -1.0
    res = linprog(sign * lp.c, A_ub=lp.a[~eq], b_ub=lp.b[~eq], A_eq=lp.a[eq], b_eq=lp.b[eq],
                  bounds=np.column_stack([lp.lower, lp.upper]), method="highs",
                  options={"presolve": False})
    assert res.status in (0, 2, 3), res.message
    if res.status == 2:
        return None
    return -sign * np.inf if res.status == 3 else sign * res.fun


def test_bounds_match_highs_on_the_multiplier_form(eight_dmu, four_dmu, cfg):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(2024)
    checked = raised = 0
    for ds in [eight_dmu, four_dmu] + [random_dataset(rng, max_n=12) for _ in range(10)]:
        je = efficient_set(ds, cfg)
        pri = default_priority(ds.m, ds.s)
        points = [(ds.x[o], ds.y[o]) for o in range(ds.n)]
        for o in range(ds.n):
            p = closest_projection(je, o, pri, cfg)
            points.append((p.target_inputs, p.target_outputs))
        for px, py in points:
            upper = highs_intercept(multiplier_intercept_program(ds, px, py, "max"), linprog)
            try:
                b = intercept_bounds(ds, px, py, cfg)
            except AnalysisError:
                assert upper is None
                raised += 1
                continue
            pairs = [(b.upper, upper)]
            if b.stage_count == 2:
                lp = multiplier_intercept_program(ds, px, py, "min")
                pairs.append((b.lower, highs_intercept(lp, linprog)))
            for got, want in pairs:
                assert want is not None
                if np.isinf(want) or np.isinf(got):
                    assert got == want
                else:
                    assert abs(got - want) <= 1e-9 * (1 + abs(want))
            checked += 1
    assert checked > 100 and raised > 10


def test_lower_stage_starts_at_unit_multipliers(monkeypatch, cfg):
    # lambda=0, mu=1, u0=1 is a vertex of the minimizing stage; starting there
    # ends at the cold solve's bound; over these sets it took 53 pivots
    # against 91 cold
    lower_stages = []

    def recording(lp, cfg, *start):
        sol = solve_lp(lp, cfg, *start)
        if lp.sense == "max":  # the minimizing stage, in its dual form
            lower_stages.append((lp, start, sol))
        return sol

    monkeypatch.setattr(returns_to_scale, "solve_lp", recording)
    warm_pivots = cold_pivots = 0
    for seed in (7, 11, 2024):
        ds = random_dataset(np.random.default_rng(seed))
        for o in efficient_set(ds, cfg).indices:
            lower_stages.clear()
            intercept_bounds(ds, ds.x[o], ds.y[o], cfg)
            for lp, (start,), warm in lower_stages:
                assert np.abs(standardize(lp).a @ start.x - lp.b).max() == 0.0
                cold = solve_lp(lp, cfg)
                assert warm.status is cold.status is SolveStatus.OPTIMAL
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                warm_pivots += warm.iterations
                cold_pivots += cold.iterations
    assert cold_pivots > 0
    assert warm_pivots <= 2 * cold_pivots // 3
