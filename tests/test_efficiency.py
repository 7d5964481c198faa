import io

import numpy as np
import pytest

from dea_closest import efficiency, efficient_set, evaluate_all, evaluate_bcc, load_dataset, solve_lp

from conftest import make_dataset, multiplier_score, random_dataset


def test_eight_dmu_classification(eight_dmu, cfg):
    results = evaluate_all(eight_dmu, cfg)
    flags = [r.is_efficient for r in results]
    assert flags == [True, True, True, True, False, False, False, False]
    assert efficient_set(eight_dmu, cfg).indices == (0, 1, 2, 3)


def test_eight_dmu_scores(eight_dmu, cfg):
    # radial scores derived from the piecewise frontier x(y) = (y+1)/3 on [2,5]
    theta = [evaluate_bcc(eight_dmu, o, cfg).theta for o in range(8)]
    assert theta[:4] == pytest.approx([1.0] * 4, abs=1e-9)
    assert theta[4] == pytest.approx(5 / 8, abs=1e-9)    # y=8 needs x=5
    assert theta[5] == pytest.approx(1 / 2, abs=1e-9)    # y>=1 reachable at x=1
    assert theta[6] == pytest.approx(4 / 9, abs=1e-9)    # x(3)=4/3 over 3
    assert theta[7] == pytest.approx(5 / 18, abs=1e-9)   # x(4)=5/3 over 6


def test_max_slack_completion(eight_dmu, cfg):
    # DMU6 shrinks radially to (1,1) and still has an output shortfall of 1
    r = evaluate_bcc(eight_dmu, 5, cfg)
    assert r.theta == pytest.approx(0.5)
    assert r.slacks == pytest.approx([0.0, 1.0], abs=1e-8)
    assert not r.is_efficient


def test_non_extreme_efficient_dmu(eight_dmu, cfg):
    # DMU3 sits on the segment DMU2-DMU4: theta*=1 and no slack completion
    r = evaluate_bcc(eight_dmu, 2, cfg)
    assert r.is_efficient
    assert r.theta == pytest.approx(1.0, abs=1e-9)
    assert np.abs(r.slacks).max() < 1e-8


def test_four_dmu_classification(four_dmu, cfg):
    assert efficient_set(four_dmu, cfg).indices == (0, 1, 2)
    assert evaluate_bcc(four_dmu, 3, cfg).theta == pytest.approx(2 / 3, abs=1e-9)


def test_lambda_is_convex_combination(eight_dmu, cfg):
    for o in range(8):
        r = evaluate_bcc(eight_dmu, o, cfg)
        assert r.lambdas.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(r.lambdas >= -1e-9)


def test_all_copies_dataset_all_efficient(cfg):
    ds = make_dataset(np.full((4, 2), 3.0), np.full((4, 1), 7.0))
    for r in evaluate_all(ds, cfg):
        assert r.is_efficient and r.theta == pytest.approx(1.0, abs=1e-9)


def test_unit_invariance_of_classification(cfg):
    rng = np.random.default_rng(5150)
    ds = random_dataset(rng, max_n=10)
    flags = [r.is_efficient for r in evaluate_all(ds, cfg)]
    x = ds.x.copy()
    x[:, 0] *= 37.5
    scaled = make_dataset(x, ds.y)
    assert [r.is_efficient for r in evaluate_all(scaled, cfg)] == flags


def test_dominated_dmu_never_efficient(cfg):
    rng = np.random.default_rng(2024)
    for _ in range(5):
        ds = random_dataset(rng, max_n=10)
        results = evaluate_all(ds, cfg)
        x, y = ds.x, ds.y
        for b in range(ds.n):
            for a in range(ds.n):
                if a == b:
                    continue
                weak = np.all(x[a] <= x[b]) and np.all(y[a] >= y[b])
                strict = np.any(x[a] < x[b]) or np.any(y[a] > y[b])
                if weak and strict:
                    assert not results[b].is_efficient
                    break


def test_radial_projection_reevaluates_efficient(eight_dmu, cfg):
    # the intensity-weighted point of an inefficient DMU lies on the frontier
    for o in (4, 5, 6, 7):
        r = evaluate_bcc(eight_dmu, o, cfg)
        px = r.lambdas @ eight_dmu.x
        py = r.lambdas @ eight_dmu.y
        ext = eight_dmu.with_dmu("proj", px, py)
        pr = evaluate_bcc(ext, ext.n - 1, cfg)
        assert pr.theta == pytest.approx(1.0, abs=1e-7)
        assert np.abs(pr.slacks).max() < 1e-6


def test_multiplier_model_cross_check(eight_dmu, four_dmu, cfg):
    for ds in (eight_dmu, four_dmu):
        for o in range(ds.n):
            theta = evaluate_bcc(ds, o, cfg).theta
            assert multiplier_score(ds, o, cfg) == pytest.approx(theta, abs=1e-6)


# 12 DMUs, 6 of them on a known frontier, with every column rescaled by a
# power of ten (inputs near 1e0, outputs near 1e3 and 1e5)
RESCALED_BCC_CSV = """dmu,in:x1,in:x2,out:y1,out:y2
U1,1.4955,9.006100000000002,4469.3,595090.0
U2,5.5358,6.5374,5041.599999999999,398330.0
U3,5.8950000000000005,3.7797,6411.400000000001,280510.0
U4,1.0286,7.732200000000001,2413.5,904340.0
U5,5.569800000000001,2.822,6052.7,241980.0
U6,0.8252000000000002,6.642700000000001,7217.1,475310.0
U7,6.554300000000001,5.601400000000001,9933.5,478350.0
U8,5.4413,3.1502,3423.6,382750.0
U9,4.2303,1.8210000000000002,5038.0,592730.0
U10,4.2236,3.4401000000000006,7403.5,467170.0
U11,5.543500000000001,6.4266000000000005,6377.5,467620.0
U12,5.6604,0.8921,8069.499999999999,63920.0
"""


def test_bcc_scores_match_highs_on_rescaled_columns(cfg):
    # theta=1, lambda_o=1 is always feasible, yet phase 1 once stopped at a
    # vertex it took for optimal and reported U6's program "infeasible"
    linprog = pytest.importorskip("scipy.optimize").linprog
    ds = load_dataset(io.StringIO(RESCALED_BCC_CSV))
    for o in range(ds.n):
        # min theta over [theta, lambda]: X lambda <= theta x_o, Y lambda >= y_o,
        # sum lambda = 1
        c = np.concatenate([[1.0], np.zeros(ds.n)])
        a_ub = np.vstack([np.column_stack([-ds.x[o], ds.x.T]),
                          np.column_stack([np.zeros(ds.s), -ds.y.T])])
        b_ub = np.concatenate([np.zeros(ds.m), -ds.y[o]])
        a_eq = np.concatenate([[0.0], np.ones(ds.n)])[None, :]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                      bounds=[(0, None)] * (1 + ds.n), method="highs")
        assert res.status == 0
        assert abs(evaluate_bcc(ds, o, cfg).theta - res.fun) <= 1e-6, ds.names[o]


def test_bcc_slacks_match_highs_on_rescaled_columns(cfg):
    # phase 2 from the phase-1 basis: the largest total slack at the optimal
    # theta agrees with HiGHS on the same rescaled data
    linprog = pytest.importorskip("scipy.optimize").linprog
    ds = load_dataset(io.StringIO(RESCALED_BCC_CSV))
    n, m, s = ds.n, ds.m, ds.s
    for o in range(ds.n):
        r = evaluate_bcc(ds, o, cfg)
        # max total slack over [lambda, s_in, s_out]: X lambda + s_in = theta x_o,
        # Y lambda - s_out = y_o, sum lambda = 1
        a_eq = np.vstack([np.hstack([ds.x.T, np.eye(m), np.zeros((m, s))]),
                          np.hstack([ds.y.T, np.zeros((s, m)), -np.eye(s)]),
                          np.r_[np.ones(n), np.zeros(m + s)][None, :]])
        b_eq = np.r_[r.theta * ds.x[o], ds.y[o], 1.0]
        c = -np.r_[np.zeros(n), np.ones(m + s)]
        res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (n + m + s), method="highs")
        assert res.status == 0
        assert abs(r.slacks.sum() + res.fun) <= 1e-6 * (1.0 + abs(res.fun)), ds.names[o]
        assert np.all(r.slacks >= -1e-9 * (1.0 + np.abs(np.r_[ds.x[o], ds.y[o]])))


def test_bcc_phase1_starts_at_the_unit_vertex(monkeypatch, cfg):
    # evaluate_all took 281 pivots on this dataset with phase 1 solved cold,
    # an artificial variable in every row; starting at theta=1, lambda_o=1
    # skips that phase and must take at most half as many
    rng = np.random.default_rng(7)
    ds = random_dataset(rng)
    pivots = []

    def counting(lp, cfg, warm_start=None):
        sol = solve_lp(lp, cfg, warm_start=warm_start)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(efficiency, "solve_lp", counting)
    results = evaluate_all(ds, cfg)
    assert sum(pivots) <= 281 // 2
    for r in results:
        assert r.theta == pytest.approx(multiplier_score(ds, r.dmu, cfg), abs=1e-7)


def test_singular_unit_vertex_falls_back_to_a_cold_start(cfg):
    # with x_o all zero, theta has no pivot in the starting basis; the solve
    # starts cold instead, and any theta >= 0 is optimal at lambda_o = 1
    ds = make_dataset(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 1.0]]),
                      np.array([[1.0], [2.0], [2.0]]))
    r = evaluate_bcc(ds, 0, cfg)
    assert r.theta == pytest.approx(0.0, abs=1e-12)
    assert r.is_efficient is False
