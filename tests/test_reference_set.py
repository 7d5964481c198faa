import warnings

import numpy as np
import pytest

from dea_closest import (AnalysisError, Frontier, LinearProgram, SolveStatus,
                         closest_projection, default_priority, efficient_set, evaluate_all,
                         identify_mcrs, intercept_bounds, reference_set, solve_lp,
                         solve_max_support_lp)
from dea_closest.projection import Projection

from conftest import log_uniform_dataset, make_dataset, random_dataset, with_dmu


@pytest.fixture(scope="module")
def je8(eight_dmu, cfg):
    return efficient_set(eight_dmu, cfg)


def project(je, o, cfg):
    return closest_projection(je, o, default_priority(je.dataset.m, je.dataset.s), cfg)


def point_projection(o, x, y, priority):
    """Wrap an arbitrary frontier point as a stage-less projection."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return Projection(o, x, y, np.zeros(x.size + y.size), (), priority)


def reference_support_oracle(ds, je, target_x, target_y, cfg, tol=1e-7, linprog=None):
    """Independent membership test: an efficient DMU belongs to the maximal
    reference set exactly when some convex representation of the target gives
    it positive weight, i.e. max lambda_j over the representation polytope is
    positive.  Each max is solved by HiGHS when ``linprog`` is scipy's."""
    x, y = ds.x, ds.y
    idx = list(je.indices)
    t = len(idx)
    a = np.vstack([x[idx].T, y[idx].T, np.ones((1, t))])
    b = np.concatenate([np.atleast_1d(target_x), np.atleast_1d(target_y), [1.0]])
    members = []
    for k, j in enumerate(idx):
        c = np.zeros(t)
        c[k] = 1.0
        if linprog is None:
            sol = solve_lp(LinearProgram("max", c, a, ("=",) * a.shape[0], b,
                                         np.zeros(t), np.full(t, np.inf)), cfg)
            best = sol.objective if sol.status is SolveStatus.OPTIMAL else None
        else:
            res = linprog(-c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
            best = -res.fun if res.status == 0 else None
        if best is not None and best > tol:
            members.append(j)
    return tuple(members)


@pytest.mark.parametrize("o,members,weights", [
    (4, ("DMU4",), (1.0,)),
    (5, ("DMU1",), (1.0,)),
    (6, ("DMU1", "DMU2"), (2 / 3, 1 / 3)),
    (7, ("DMU1", "DMU2"), (1 / 3, 2 / 3)),
])
def test_eight_dmu_reference_sets(eight_dmu, je8, cfg, o, members, weights):
    p = project(je8, o, cfg)
    mc = identify_mcrs(je8, p, cfg)
    assert tuple(eight_dmu.names[j] for j in mc.members) == members
    by_name = dict(zip((eight_dmu.names[j] for j in mc.columns), mc.lambda_max))
    for name, w in zip(members, weights):
        assert by_name[name] == pytest.approx(w, abs=1e-6)


def test_support_lp_solution_structure(eight_dmu, je8, cfg):
    # one weight per efficient DMU, forming a convex combination that
    # reproduces the target's inputs and outputs
    x, y = eight_dmu.x, eight_dmu.y
    idx = list(je8.indices)
    for o in (6, 7):
        p = project(je8, o, cfg)
        lam = solve_max_support_lp(je8, p, cfg)
        assert lam.shape == (je8.size,)
        assert np.all(lam >= -1e-9)
        assert lam.sum() == pytest.approx(1.0, abs=1e-7)
        assert x[idx].T @ lam == pytest.approx(p.target_inputs, abs=1e-7)
        assert y[idx].T @ lam == pytest.approx(p.target_outputs, abs=1e-7)


def test_projection_at_isolated_extreme_unit(eight_dmu, je8, cfg):
    # DMU5's projection is the extreme unit DMU4: only that column carries weight
    p = project(je8, 4, cfg)
    lam = solve_max_support_lp(je8, p, cfg)
    assert lam == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-7)


@pytest.mark.parametrize("weight,warned", [(5e-8, True), (5e-10, False)])
def test_borderline_weight_is_excluded(eight_dmu, je8, cfg, monkeypatch, weight, warned):
    # DMU7's target lies between DMU1 and DMU2; the support LP's solution is
    # nudged so that DMU4 gets a normalized weight below the zero threshold.
    # Above BORDERLINE_WEIGHT the exclusion is warned about, below it silent
    t = je8.size
    k = je8.indices.index(3)
    solve = reference_set.solve_lp

    def nudged(lp, cfg):
        sol = solve(lp, cfg)
        x = sol.x.copy()
        x[k] = weight * (x[t] + x[2 * t + 1])  # alpha_k over the target aggregate
        x[t + 1 + k] = 0.0
        sol.x = x
        return sol

    monkeypatch.setattr(reference_set, "solve_lp", nudged)
    p = project(je8, 6, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mc = identify_mcrs(je8, p, cfg)
    assert mc.lambda_max[k] == pytest.approx(weight, rel=1e-9)
    assert tuple(eight_dmu.names[j] for j in mc.members) == ("DMU1", "DMU2")
    messages = [str(w.message) for w in caught]
    if warned:
        assert messages == ["DMU 'DMU7': reference weight for 'DMU4' is borderline "
                            "(5.000e-08); excluded from the MCRS"]
    else:
        assert messages == []


def test_non_extreme_point_collects_whole_face(eight_dmu, je8, cfg):
    # the point DMU3 = (3,6) lies on the segment DMU2-DMU4, so every efficient
    # DMU on that segment can participate in a representation
    pri = default_priority(1, 1)
    p = point_projection(2, [3.0], [6.0], pri)
    mc = identify_mcrs(je8, p, cfg)
    names = tuple(eight_dmu.names[j] for j in mc.members)
    assert names == ("DMU2", "DMU3", "DMU4")
    oracle = reference_support_oracle(eight_dmu, je8, [3.0], [6.0], cfg)
    assert mc.members == oracle


def test_lambda_max_reconststructs_target(eight_dmu, je8, cfg):
    x, y = eight_dmu.x, eight_dmu.y
    idx = list(je8.indices)
    for o in range(8):
        p = project(je8, o, cfg)
        mc = identify_mcrs(je8, p, cfg)
        assert x[idx].T @ mc.lambda_max == pytest.approx(p.target_inputs, abs=1e-6)
        assert y[idx].T @ mc.lambda_max == pytest.approx(p.target_outputs, abs=1e-6)


def test_maximality_against_oracle(eight_dmu, je8, cfg):
    for o in range(8):
        p = project(je8, o, cfg)
        mc = identify_mcrs(je8, p, cfg)
        oracle = reference_support_oracle(eight_dmu, je8,
                                          p.target_inputs, p.target_outputs, cfg)
        assert mc.members == oracle


def test_maximality_on_random_data(cfg):
    rng = np.random.default_rng(1001)
    for _ in range(3):
        ds = random_dataset(rng, max_n=8)
        je = efficient_set(ds, cfg)
        for o in range(ds.n):
            p = project(je, o, cfg)
            mc = identify_mcrs(je, p, cfg)
            oracle = reference_support_oracle(ds, je, p.target_inputs,
                                              p.target_outputs, cfg)
            assert mc.members == oracle
            assert set(mc.ucrs) <= set(mc.members)


def test_ucrs_subset_of_mcrs(eight_dmu, je8, cfg):
    for o in range(8):
        p = project(je8, o, cfg)
        mc = identify_mcrs(je8, p, cfg)
        assert set(mc.ucrs) <= set(mc.members)
        if o in je8.indices:
            assert mc.ucrs == (o,)


def test_idempotence(eight_dmu, je8, cfg):
    p = project(je8, 6, cfg)
    a = identify_mcrs(je8, p, cfg)
    b = identify_mcrs(je8, p, cfg)
    assert a.members == b.members
    assert np.array_equal(a.lambda_max, b.lambda_max)


def test_unrepresentable_target_is_internal_error(eight_dmu, je8, cfg):
    # a point outside the hull of the efficient columns cannot be scaled up
    pri = default_priority(1, 1)
    bogus = point_projection(0, [0.5], [1.0], pri)
    with pytest.raises(AnalysisError):
        identify_mcrs(je8, bogus, cfg)


def concave_frontier(rng, n):
    """n DMUs on a strictly concave (3,3) frontier, every one efficient."""
    x = np.round(rng.uniform(1, 100, (n, 3)), 3)
    d = rng.uniform(0.05, 1, (n, 3))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return make_dataset(x, np.round(d * (10 * np.sqrt(x.sum(axis=1)))[:, None], 3))


def test_support_lps_pivot_budget(monkeypatch, cfg):
    # 20 DMUs on a strictly concave (3,3) frontier, every one efficient: the
    # support LPs took 253 pivots with phase 1 iterated, although b = 0
    # starts every artificial at zero; skipping that phase must halve them
    ds = concave_frontier(np.random.default_rng(2), 20)
    je = efficient_set(ds, cfg)
    assert je.size == ds.n
    pivots = []

    def counting(lp, cfg):
        sol = solve_lp(lp, cfg)
        pivots.append(sol.iterations)
        return sol

    monkeypatch.setattr(reference_set, "solve_lp", counting)
    for o in range(ds.n):
        assert identify_mcrs(je, project(je, o, cfg), cfg).members == (o,)
    assert sum(pivots) <= 253 // 2


def supports_at(ds, eff, o, cfg):
    """The masks of the DMUs that the BCC and intercept bases at DMU ``o``'s
    own point price out."""
    bounds = intercept_bounds(ds, ds.x[o], ds.y[o], cfg)
    return (eff[o].priced_out, *bounds.supports)


def counting_support_lps(monkeypatch):
    solves = []

    def counting(lp, cfg):
        solves.append(lp)
        return solve_lp(lp, cfg)

    monkeypatch.setattr(reference_set, "solve_lp", counting)
    return solves


def test_certified_mcrs_equals_the_support_lp(monkeypatch, eight_dmu, cfg):
    # where the BCC and intercept prices and the sign test certify the DMU
    # alone, identify_mcrs solves no LP, and its result is the LP's.  A twin
    # of U1 and DMU3 inside the face DMU2-DMU4 still solve the LP
    rng = np.random.default_rng(2)
    sets = [concave_frontier(rng, 20) for _ in range(2)] + [random_dataset(rng) for _ in range(10)]
    sets += [with_dmu(sets[0], "twin", sets[0].x[0], sets[0].y[0]), eight_dmu]
    solves = counting_support_lps(monkeypatch)
    certified = solved = 0
    for ds in sets:
        eff = evaluate_all(ds, cfg)
        je = Frontier(ds, tuple(r.dmu for r in eff if r.is_efficient))
        for o in je.indices:
            p = project(je, o, cfg)
            before = len(solves)
            got = identify_mcrs(je, p, cfg, supports=supports_at(ds, eff, o, cfg))
            if len(solves) > before:
                solved += 1
                continue
            certified += 1
            want = identify_mcrs(je, p, cfg)
            assert len(solves) == before + 1
            assert (got.dmu, got.columns, got.members, got.ucrs) == (
                want.dmu, want.columns, want.members, want.ucrs)
            assert np.abs(got.lambda_max - want.lambda_max).max() <= 1e-9
    assert certified >= 20 and solved >= 3


def test_duplicate_of_an_efficient_dmu_blocks_the_certificate(monkeypatch, cfg):
    # U1 alone is certified; its twin lies on every hyperplane through U1, at
    # a zero reduced cost, so no price rules it out: the LP runs and finds both
    base = concave_frontier(np.random.default_rng(2), 20)
    twin = with_dmu(base, "twin", base.x[0], base.y[0])
    solves = counting_support_lps(monkeypatch)
    for ds, members, lps in ((base, (0,), 0), (twin, (0, 20), 1)):
        eff = evaluate_all(ds, cfg)
        je = Frontier(ds, tuple(r.dmu for r in eff if r.is_efficient))
        assert je.size == ds.n
        solves.clear()
        mc = identify_mcrs(je, project(je, 0, cfg), cfg,
                           supports=supports_at(ds, eff, 0, cfg))
        assert mc.members == members
        assert len(solves) == lps
    assert mc.lambda_max[[0, 20]].sum() == pytest.approx(1.0, abs=1e-9)
    assert mc.lambda_max[[0, 20]].min() > cfg.zero_tol


@pytest.mark.parametrize("flagged", [
    # DMU2 and DMU4 are basic, or priced within the threshold, in every basis
    [(0, 4, 5, 6, 7), (0, 4)],
    # the line through DMU1 and DMU2 prices DMU4 off, but DMU3 itself too;
    # the line through DMU2 and DMU4 leaves DMU2 below DMU3 and DMU4 above it
    # in both the input and the output
    [(2, 3, 4), (0, 4, 5, 6, 7)],
])
def test_prices_that_prove_nothing_leave_the_support_lp(eight_dmu, je8, cfg, monkeypatch,
                                                         flagged):
    # DMU3 lies inside the face DMU2-DMU4, so both belong to its MCRS and no
    # valid price can rule them out; a mask that flags DMU3 itself comes from
    # a hyperplane that misses it, so its other flags are not read
    solves = counting_support_lps(monkeypatch)
    supports = [np.isin(np.arange(eight_dmu.n), f) for f in flagged]
    p = project(je8, 2, cfg)
    mc = identify_mcrs(je8, p, cfg, supports=supports)
    assert mc.members == (1, 2, 3) and len(solves) == 1


@pytest.mark.parametrize("o,flagged,members,lps", [
    # DMU4 is extreme; with DMU1 and DMU2 priced out, DMU3 alone remains and
    # lies below DMU4 in the input
    (3, (0, 1), (3,), 0),
    # DMU2 and DMU4 lie on opposite sides of DMU3 in the input and the output
    (2, (0,), (1, 2, 3), 1),
])
def test_sign_test_on_the_dmus_the_masks_leave(eight_dmu, je8, cfg, monkeypatch,
                                               o, flagged, members, lps):
    solves = counting_support_lps(monkeypatch)
    supports = [np.isin(np.arange(eight_dmu.n), flagged)]
    mc = identify_mcrs(je8, project(je8, o, cfg), cfg, supports=supports)
    assert mc.members == members and len(solves) == lps


def certificate_sets():
    """Generated sets on which the sign test meets ties, twins, face-interior
    points and badly scaled columns."""
    rng = np.random.default_rng(27)
    for _ in range(6):  # integer grids: many ties and some duplicate rows
        n, m, s = int(rng.integers(6, 16)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        yield make_dataset(rng.integers(1, 5, (n, m)), rng.integers(1, 5, (n, s)))
    for _ in range(6):
        yield random_dataset(rng)
    for _ in range(3):  # a concave frontier and exact midpoints of frontier pairs
        base = concave_frontier(rng, 8)
        pairs = rng.choice(8, size=(4, 2), replace=False)
        mid = [((base.x[a] + base.x[b]) / 2, (base.y[a] + base.y[b]) / 2) for a, b in pairs]
        yield make_dataset(np.vstack([base.x, [x for x, _ in mid]]),
                           np.vstack([base.y, [y for _, y in mid]]))
    for _ in range(3):  # duplicated rows
        ds = random_dataset(rng, max_n=10)
        dup = rng.choice(ds.n, size=3)
        yield make_dataset(np.vstack([ds.x, ds.x[dup]]), np.vstack([ds.y, ds.y[dup]]))
    for seed in range(4):
        yield log_uniform_dataset(seed)


def test_sign_test_certificates_agree_with_the_support_lp(monkeypatch, cfg):
    # wherever the BCC masks alone (mcrs) or with the intercept masks (report)
    # certify an efficient DMU alone, the support LP without masks finds it
    # alone too; every fifth certificate is checked against HiGHS as well
    linprog = pytest.importorskip("scipy.optimize").linprog
    solves = counting_support_lps(monkeypatch)
    certified = solved = 0
    for ds in certificate_sets():
        eff = evaluate_all(ds, cfg)
        je = Frontier(ds, tuple(r.dmu for r in eff if r.is_efficient))
        for o in je.indices:
            p = project(je, o, cfg)
            want = identify_mcrs(je, p, cfg)
            for supports in ((eff[o].priced_out,), supports_at(ds, eff, o, cfg)):
                before = len(solves)
                got = identify_mcrs(je, p, cfg, supports=supports)
                if len(solves) > before:
                    solved += 1
                    continue
                certified += 1
                assert got.members == want.members == (o,), (ds.x, ds.y, o)
                if certified % 5 == 0:
                    assert reference_support_oracle(ds, je, ds.x[o], ds.y[o], cfg,
                                                    linprog=linprog) == (o,)
    assert certified >= 100 and solved >= 10
