import gc
import io
import warnings
import weakref

import numpy as np
import pytest

from dea_closest import (AnalysisError, RtsBounds, RtsLabel, Solution, SolverLimitError,
                         SolveStatus, classify_rts, closest_projection, closest_rts,
                         default_priority, efficiency, efficient_set, intercept_bounds,
                         load_dataset, returns_to_scale)
from dea_closest.report import RunConfig, analyze
from dea_closest.solver import Basis, solve_lp
from dea_closest.solver.simplex import standardize

from conftest import (highs_intercept_both, log_uniform_dataset, make_dataset,
                      multiplier_intercept_program, random_dataset, with_dmu)


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
    def out_of_pivots(lp, cfg, *start):
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


def test_both_stages_start_at_their_best_single_dmu_vertex(monkeypatch, cfg):
    # each stage starts at a vertex with at most one positive lambda (the
    # lower stage at lambda=0, mu=1, u0=1 when no DMU lies below the point in
    # every input, the upper one cold when none exceeds it in every output);
    # starting there ends at the cold solve's bound; over these sets the
    # 26 started stages took 30 pivots against 121 cold
    stages = []

    def recording(lp, cfg, *start):
        sol = solve_lp(lp, cfg, *start)
        stages.append((lp, start, sol))
        return sol

    monkeypatch.setattr(returns_to_scale, "solve_lp", recording)
    warm_pivots = cold_pivots = 0
    started = {"min": 0, "max": 0}  # by the sense of the dual form
    for seed in (7, 11, 2024):
        ds = random_dataset(np.random.default_rng(seed))
        for o in efficient_set(ds, cfg).indices:
            stages.clear()
            intercept_bounds(ds, ds.x[o], ds.y[o], cfg)
            for lp, starts, warm in stages:
                cold = solve_lp(lp, cfg)
                assert warm.status is cold.status
                if warm.status is SolveStatus.OPTIMAL:
                    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                (start,) = starts
                if start is None:
                    assert lp.sense_sign > 0  # only the upper stage may start cold
                    continue
                assert start.x is None  # named by its basic columns alone
                # each stage is handed to the solver as its standardized system
                assert np.linalg.matrix_rank(lp.a[:, start.columns]) == lp.a.shape[0]
                started["min" if lp.sense_sign > 0 else "max"] += 1
                warm_pivots += warm.iterations
                cold_pivots += cold.iterations
    assert started["min"] > 0 and started["max"] > 0
    assert warm_pivots <= 2 * cold_pivots // 3


def solve_bits(sol):
    """Everything a solve returns that a start could move, as raw bytes."""
    return (sol.status, None if sol.x is None else sol.x.tobytes(),
            np.float64(sol.objective).tobytes(), sol.iterations,
            None if sol.basis is None else sol.basis.columns.tobytes())


def test_hand_built_starts_rest_nonbasic_columns_at_their_bounds(cfg):
    # a start named by its columns alone solves bit for bit like the same
    # columns with a point that holds every nonbasic column at its bound
    programs = []
    for seed in (7, 11, 2024):
        ds = random_dataset(np.random.default_rng(seed))
        for o in range(ds.n):
            programs.append((efficiency._bcc_program(ds, o), efficiency._unit_vertex(ds, o)))
        for o in efficient_set(ds, cfg).indices:
            for sense, sigma in (("max", 1.0), ("min", -1.0)):
                start = returns_to_scale._single_dmu_vertex(ds, ds.x[o], ds.y[o], sigma)
                if start is not None:
                    lp = returns_to_scale._intercept_program(ds, ds.x[o], ds.y[o], sense)
                    programs.append((lp, start))
    senses = set()
    for lp, start in programs:
        assert start.x is None
        std = standardize(lp)
        rest = np.where(np.isfinite(std.lower), std.lower, 0.0)
        named = solve_lp(lp, cfg, Basis(start.columns))
        placed = solve_lp(lp, cfg, Basis(start.columns, rest))
        assert solve_bits(named) == solve_bits(placed)
        senses.add(lp.sense)
    assert senses == {"min", "max"} and len(programs) > 50


def test_stages_on_the_shared_system_solve_like_their_own_programs(
        monkeypatch, eight_dmu, four_dmu, cfg):
    # every stage solved on the dataset's cached system, with the point's
    # columns written into a copy of its matrix, is the stage's own program
    # standardized, and solves bit for bit like it from the same start: at
    # efficient DMUs' own points and at inefficient DMUs' closest targets
    stages = []

    def recording(lp, cfg, *start):
        sol = solve_lp(lp, cfg, *start)
        stages.append((lp, start, sol))
        return sol

    monkeypatch.setattr(returns_to_scale, "solve_lp", recording)
    datasets = [eight_dmu, four_dmu] + [random_dataset(np.random.default_rng(seed))
                                        for seed in (7, 11, 2024)]
    seen = {"cold upper": 0, "infeasible upper": 0, "lower": 0, "inefficient": 0}
    for ds in datasets:
        frontier = efficient_set(ds, cfg)
        priority = default_priority(ds.m, ds.s)
        for o in range(ds.n):
            if o in frontier:
                px, py = ds.x[o], ds.y[o]
            else:
                target = closest_projection(frontier, o, priority, cfg)
                px, py = target.target_inputs, target.target_outputs
                seen["inefficient"] += 1
            stages.clear()
            intercept_bounds(ds, px, py, cfg)
            for std, (start,), shared in stages:
                sense = "max" if std.sense_sign > 0 else "min"
                lp = returns_to_scale._intercept_program(ds, px, py, sense)
                own = standardize(lp)
                for name in ("a", "a_abs", "b", "c", "lower", "upper", "slack_of_row"):
                    assert getattr(std, name).tobytes() == getattr(own, name).tobytes(), name
                assert (std.n_struct, std.sense_sign) == (own.n_struct, own.sense_sign)
                assert std.sense_sign == (1.0 if lp.sense == "min" else -1.0)
                alone = solve_lp(lp, cfg, start)
                assert solve_bits(shared) == solve_bits(alone)
                assert (shared.priced_out is None) == (alone.priced_out is None)
                if alone.priced_out is not None:
                    assert shared.priced_out.tobytes() == alone.priced_out.tobytes()
                if sense == "max":
                    seen["cold upper"] += start is None
                    seen["infeasible upper"] += alone.status is SolveStatus.INFEASIBLE
                else:
                    seen["lower"] += 1
    assert min(seen.values()) > 0, seen


def test_intercept_system_is_built_once_per_dataset_object(monkeypatch, cfg):
    built = []
    program = returns_to_scale._intercept_program

    def counting(ds, *args):
        built.append(ds)
        return program(ds, *args)

    monkeypatch.setattr(returns_to_scale, "_intercept_program", counting)
    x, y = [[2.0], [3.0], [6.0], [4.0]], [[2.0], [5.0], [6.0], [4.0]]
    ds = make_dataset(x, y)
    bounds = [intercept_bounds(ds, ds.x[o], ds.y[o], cfg) for o in (0, 1, 2, 1)]
    assert bounds[1] == bounds[3]
    assert len(built) == 2 and all(d is ds for d in built)  # one system per stage
    systems = returns_to_scale._intercept_systems(ds)
    assert returns_to_scale._intercept_systems(ds) is systems
    assert systems[0].a is systems[1].a and systems[0].a_abs is systems[1].a_abs
    for std in systems:
        for arr in (std.a, std.a_abs, std.b, std.c, std.lower, std.upper, std.slack_of_row):
            assert not arr.flags.writeable

    # an equal but distinct dataset gets a system of its own, with the same bounds
    twin = make_dataset(x, y)
    assert intercept_bounds(twin, twin.x[1], twin.y[1], cfg) == bounds[1]
    assert len(built) == 4 and built[2:] == [twin, twin]
    assert returns_to_scale._intercept_systems(twin)[0] is not systems[0]

    # the cache keeps no dataset alive
    gone = weakref.ref(twin)
    built.clear()
    del twin
    gc.collect()
    assert gone() is None


def test_starts_raise_no_warning_at_zeros_and_duplicates():
    # U1 and U7 have a zero input and a zero output, so each targets a point
    # with both; U7 exceeds U1 on its positive output and equals it on the
    # zero one, and U1 lies below U7 in every positive input; U4 duplicates U2
    x = [[0, 4], [2, 2], [4, 1], [2, 2], [5, 5], [3, 4], [0, 6]]
    y = [[2, 0], [3, 2], [4, 3], [3, 2], [1, 1], [2, 1], [3, 0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = analyze(make_dataset(x, y), RunConfig("zeros.csv"))
    assert all(rec.rts_label is RtsLabel.CRS for rec in report.records)


# two "units" benchmark tables (seed 4 dataset 28, seed 1 dataset 48): the
# proj-bnb data with every column rescaled by a power of ten
UNITS_4_28 = """dmu,in:x1,in:x2,out:y1,out:y2
U1,8.214,877750.0,67161.0,744460.0
U2,6.533799999999999,343650.0,17652.0,982790.0
U3,5.125900000000001,199140.00000000003,83290.0,134190.0
U4,7.443000000000001,423470.0,54503.0,657870.0000000001
U5,6.116700000000001,461960.0,55772.0,331930.0
U6,4.1204,660909.9999999999,69597.0,767189.9999999999
U7,1.8355000000000001,734140.0,51714.0,806380.0
U8,9.0843,622770.0,45931.0,798870.0
U9,9.721400000000001,396629.99999999994,39174.0,1102410.0
U10,8.5615,357510.0,43894.0,415390.0
U11,5.990600000000001,640840.0,76913.0,805190.0
U12,5.6793000000000005,792230.0,40840.0,694430.0
"""

UNITS_1_48 = """dmu,in:x1,in:x2,out:y1,out:y2
U1,733.8599999999999,86758.0,0.7625400000000001,468020.0
U2,282.73,6072.0,0.23431000000000002,537170.0
U3,782.69,86159.0,0.5532900000000001,283480.0
U4,792.62,5768.0,0.85345,349159.99999999994
U5,784.86,82882.0,0.80652,257170.0
U6,338.68,106005.0,0.45433,546770.0
U7,92.44999999999999,87543.0,0.5428499999999999,820490.0000000001
U8,602.53,90815.0,0.9151600000000001,820470.0
U9,755.6100000000001,44908.0,0.8150000000000001,234570.0
U10,838.94,49790.0,0.53049,420450.0
U11,321.22,80720.0,0.35468000000000005,1001310.0
U12,810.99,56970.0,1.16828,125760.0
"""


@pytest.mark.parametrize("table,dmu,upper", [
    # the cold phase 1 of the upper stage read its program as infeasible (+inf)
    ("log-uniform seed 10", "U1", 17994.8131),
    # the cold solve stopped at 3.00905865
    ("units seed 4 dataset 28", "U2", 3.00825103),
    # the cold solve hit the iteration limit at U1's target
    ("units seed 1 dataset 48", "U1", 4.35337097),
])
def test_rts_bounds_match_highs_where_the_cold_upper_stage_failed(table, dmu, upper):
    linprog = pytest.importorskip("scipy.optimize").linprog
    ds = (log_uniform_dataset(10) if table.startswith("log")
          else load_dataset(io.StringIO(UNITS_4_28 if "seed 4" in table else UNITS_1_48)))
    report = analyze(ds, RunConfig("table.csv"))
    for rec in report.records:
        px, py = rec.projection.target_inputs, rec.projection.target_outputs
        b = rec.rts_bounds
        pairs = [(b.upper, highs_intercept_both(multiplier_intercept_program(ds, px, py, "max"),
                                                linprog))]
        if b.stage_count == 2:
            pairs.append((b.lower, highs_intercept_both(
                multiplier_intercept_program(ds, px, py, "min"), linprog)))
        for got, want in pairs:
            if np.isinf(want) or np.isinf(got):
                assert got == want, rec.name
            else:
                assert abs(got - want) <= 1e-9 * (1 + abs(want)), rec.name
    by_name = {rec.name: rec for rec in report.records}
    assert by_name[dmu].rts_bounds.upper == pytest.approx(upper, rel=1e-8)  # 9 digits


def test_bounds_match_highs_at_efficient_dmus_moved_by_rounding(cfg):
    # a closest target can be an efficient DMU moved by rounding; here each
    # input and output of the DMU is raised by 1e-14 relative.  Counting a
    # gap of that size as "below the point", the minimizing stage started at
    # lambda near 1e14, from which it stopped at a wrong lower bound (five of
    # these points) or reported a false unbounded ray
    linprog = pytest.importorskip("scipy.optimize").linprog
    checked = 0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for _ in range(6):
            ds = random_dataset(rng, max_n=12, max_dim=2)
            for o in efficient_set(ds, cfg).indices:
                px, py = ds.x[o] * (1.0 + 1e-14), ds.y[o] * (1.0 + 1e-14)
                b = intercept_bounds(ds, px, py, cfg)
                senses = ("max", "min")[:b.stage_count]
                for got, sense in zip((b.upper, b.lower), senses):
                    want = highs_intercept_both(multiplier_intercept_program(ds, px, py, sense),
                                                linprog)
                    if np.isinf(want) or np.isinf(got):
                        assert got == want, (seed, ds.names[o], sense)
                    else:
                        assert abs(got - want) <= 1e-9 * (1 + abs(want)), (seed, ds.names[o], sense)
                checked += b.stage_count
    assert checked > 100
