import numpy as np
import pytest

from dea_closest import efficient_set, evaluate_all, evaluate_bcc

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
