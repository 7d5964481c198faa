"""The DEA programs are assembled from array blocks; each is checked bit for
bit (signed zeros included) against the per-row loop it replaced, so every
entry and the row and column order stay exactly as the simplex saw them.
The programs derived from another one (later lexicographic stages, BCC
phase 2) share its rows; their objective and bounds are checked bit for bit
against arrays written out entry by entry here."""

import numpy as np
import pytest

from dea_closest import (build_stage_program, closest_projection, default_priority,
                         derive_stage_program, efficient_set, projection, reference_set,
                         solve_max_support_lp)
from dea_closest.efficiency import _bcc_program, _phase2_program, evaluate_bcc
from dea_closest.report import RunConfig, analyze
from dea_closest.returns_to_scale import _intercept_program

from conftest import make_dataset, random_dataset


def loop_bcc_rows(ds, o):
    x, y, n, m, s = ds.x, ds.y, ds.n, ds.m, ds.s
    a = np.zeros((m + s + 1, 1 + n + m + s))
    b = np.zeros(m + s + 1)
    for i in range(m):
        a[i, 0] = -x[o, i]
        a[i, 1:1 + n] = x[:, i]
        a[i, 1 + n + i] = 1.0
    for r in range(s):
        a[m + r, 1:1 + n] = y[:, r]
        a[m + r, 1 + n + m + r] = -1.0
        b[m + r] = y[o, r]
    a[m + s, 1:1 + n] = 1.0
    b[m + s] = 1.0
    return a, b


def loop_stage_rows(ds, je, o):
    x, y, m, s = ds.x, ds.y, ds.m, ds.s
    idx, t = list(je.indices), je.size
    c_w, c_d = t + m + s, t + 2 * (m + s) + 1
    a = np.zeros((m + s + 1 + t, c_d + t))
    b = np.zeros(m + s + 1 + t)
    for i in range(m):
        a[i, :t] = x[idx, i]
        a[i, t + i] = 1.0
        b[i] = x[o, i]
    for j in range(s):
        a[m + j, :t] = y[idx, j]
        a[m + j, t + m + j] = -1.0
        b[m + j] = y[o, j]
    a[m + s, :t] = 1.0
    b[m + s] = 1.0
    for k in range(t):
        r = m + s + 1 + k
        a[r, c_w:c_w + m] = -x[idx[k]]
        a[r, c_w + m:c_w + m + s] = y[idx[k]]
        a[r, c_d - 1] = -1.0
        a[r, c_d + k] = 1.0
    return a, b


def loop_support_rows(ds, je, p):
    idx, t = list(je.indices), je.size
    cols = np.vstack([ds.x[idx].T, ds.y[idx].T, np.ones((1, t))])
    target = np.concatenate([p.target_inputs, p.target_outputs, [1.0]])
    a = np.zeros((ds.m + ds.s + 1, 2 * (t + 1)))
    a[:, :t] = cols
    a[:, t] = -target
    a[:, t + 1:2 * t + 1] = cols
    a[:, 2 * t + 1] = -target
    return a, np.zeros(ds.m + ds.s + 1)


def loop_intercept_rows(ds, px, py, sigma):
    x, y, n, m, s = ds.x, ds.y, ds.n, ds.m, ds.s
    a = np.zeros((m + s + 1, n + 2))
    b = np.zeros(m + s + 1)
    for i in range(m):
        a[i, 0] = px[i]
        a[i, 1] = -px[i]
        for j in range(n):
            a[i, 2 + j] = -x[j, i]
    for r in range(s):
        a[m + r, 1] = py[r]
        for j in range(n):
            a[m + r, 2 + j] = y[j, r]
    a[m + s, 1:] = -1.0
    b[m + s] = sigma
    return a, b, (">=",) * (m + s) + ("=",)


def assert_bitwise(lp, a, b):
    assert lp.a.shape == a.shape and lp.a.tobytes() == a.tobytes()
    assert lp.b.shape == b.shape and lp.b.tobytes() == b.tobytes()


def datasets():
    rng = np.random.default_rng(4711)
    yield make_dataset([[1], [2], [3], [5], [8], [2], [3], [6]],
                       [[2], [5], [6], [8], [8], [1], [3], [4]])
    # zero entries make the negated blocks carry -0.0
    yield make_dataset([[0, 2], [1, 0], [2, 2], [3, 3], [4, 1]],
                       [[1, 0], [2, 1], [2, 2], [1, 3], [3, 3]])
    for _ in range(4):
        yield random_dataset(rng, max_n=9, max_dim=3)


@pytest.mark.parametrize("ds", list(datasets()), ids=lambda ds: f"n{ds.n}m{ds.m}s{ds.s}")
def test_programs_match_loop_reference(ds, cfg, monkeypatch):
    je = efficient_set(ds, cfg)
    pri = default_priority(ds.m, ds.s)
    supports = []
    solve_lp = reference_set.solve_lp

    def recording(lp, cfg):
        supports.append(lp)
        return solve_lp(lp, cfg)

    monkeypatch.setattr(reference_set, "solve_lp", recording)
    for o in range(ds.n):
        assert_bitwise(_bcc_program(ds, o), *loop_bcc_rows(ds, o))
        assert_bitwise(build_stage_program(je, o, pri.order[0]), *loop_stage_rows(ds, je, o))
        p = closest_projection(je, o, pri, cfg)
        solve_max_support_lp(je, p, cfg)
        assert_bitwise(supports[-1], *loop_support_rows(ds, je, p))
        for sense, sigma in (("max", 1.0), ("min", -1.0)):
            lp = _intercept_program(ds, p.target_inputs, p.target_outputs, sense)
            a, b, relations = loop_intercept_rows(ds, p.target_inputs, p.target_outputs, sigma)
            assert_bitwise(lp, a, b)
            assert lp.relations == relations


def loop_bcc_bounds(ds, theta=None):
    """Objective and bounds of BCC phase 1 (``theta`` None) or of phase 2
    with theta pinned at ``theta``."""
    nv = 1 + ds.n + ds.m + ds.s
    c, lower, upper = np.zeros(nv), np.zeros(nv), np.zeros(nv)
    for j in range(nv):
        upper[j] = np.inf
        if theta is None:
            c[j] = 1.0 if j == 0 else 0.0
        else:
            c[j] = 1.0 if j > ds.n else 0.0
    if theta is not None:
        lower[0] = upper[0] = theta
    return c, lower, upper


def loop_stage_bounds(ds, je, pinned, target):
    """Objective and bounds of the stage minimizing slack ``target`` with the
    ``(slack, value)`` pairs of ``pinned`` fixed."""
    t, k = je.size, ds.m + ds.s
    nv = 2 * t + 2 * k + 1
    c, lower, upper = np.zeros(nv), np.zeros(nv), np.zeros(nv)
    fixed = dict(pinned)
    for j in range(nv):
        upper[j] = np.inf
        if j < t:  # lambda
            upper[j] = 1.0
        elif j < t + k:  # slack
            c[j] = 1.0 if j - t == target else 0.0
            if j - t in fixed:
                lower[j] = upper[j] = fixed[j - t]
        elif j < t + 2 * k:  # multiplier
            lower[j] = 1.0
        elif j == t + 2 * k:  # intercept
            lower[j] = -np.inf
    return c, lower, upper


def assert_objective_and_bounds(lp, sense, c, lower, upper):
    assert lp.sense == sense
    for name, want in (("c", c), ("lower", lower), ("upper", upper)):
        got = getattr(lp, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("ds", list(datasets()), ids=lambda ds: f"n{ds.n}m{ds.m}s{ds.s}")
def test_stage_programs_objective_and_bounds(ds, cfg):
    # stage 1 is built, stages 2..m+s are derived from it by their objective
    # and pins; the pins are the stage optima of the DMU's projection where
    # it has stages
    je = efficient_set(ds, cfg)
    pri = default_priority(ds.m, ds.s)
    t = je.size
    pairs = np.column_stack([np.arange(t), np.arange(t + 2 * (ds.m + ds.s) + 1,
                                                     2 * t + 2 * (ds.m + ds.s) + 1)])
    for o in range(ds.n):
        stages = closest_projection(je, o, pri, cfg).stages
        values = [st.value for st in stages] or [0.25 * (k + 1) for k in range(ds.m + ds.s)]
        first = build_stage_program(je, o, pri.order[0])
        for k, target in enumerate(pri.order):
            pinned = list(zip(pri.order[:k], values[:k]))
            lp = derive_stage_program(first, pinned, target) if k else first
            assert_objective_and_bounds(lp, "min", *loop_stage_bounds(ds, je, pinned, target))
            assert lp.relations == ("=",) * (ds.m + ds.s + 1 + t)
            assert np.array_equal(lp.complements, pairs)
            # a basis resumes its inverse across stages only over the same matrix
            assert lp.a is first.a and lp.b is first.b
            assert lp.relations is first.relations and lp.complements is first.complements
        with pytest.raises(ValueError, match="already pinned"):
            derive_stage_program(first, [(pri.order[0], 0.0)], pri.order[0])


@pytest.mark.parametrize("ds", list(datasets()), ids=lambda ds: f"n{ds.n}m{ds.m}s{ds.s}")
def test_chained_stage1_programs_match_loop_reference(ds, cfg, monkeypatch):
    # one report builds one stage-1 program and derives every later DMU's
    # from the one before by that DMU's right-hand side: each stage-1
    # program solved is still the loop reference bit for bit, sharing the
    # first one's matrix.  Stage 1, the only stage that minimizes the first
    # slack, is always solved; a later stage may be settled unsolved
    je = efficient_set(ds, cfg)
    pri = default_priority(ds.m, ds.s)
    builds, solved = [], []
    build, solve = projection.build_stage_program, projection.solve_milp

    def building(*args):
        builds.append(args)
        return build(*args)

    def solving(lp, cfg, warm_start=None):
        solved.append(lp)
        return solve(lp, cfg, warm_start=warm_start)

    monkeypatch.setattr(projection, "build_stage_program", building)
    monkeypatch.setattr(projection, "solve_milp", solving)
    analyze(ds, RunConfig("chained.csv", command="project"), pri)
    inefficient = [o for o in range(ds.n) if o not in je]
    stage1 = [lp for lp in solved if lp.c[je.size + pri.order[0]] == 1.0]
    assert len(builds) == min(1, len(inefficient)) and len(stage1) == len(inefficient)
    for o, lp in zip(inefficient, stage1):
        assert_bitwise(lp, *loop_stage_rows(ds, je, o))
        assert_objective_and_bounds(lp, "min", *loop_stage_bounds(ds, je, [], pri.order[0]))
        assert lp.a is stage1[0].a and lp.relations is stage1[0].relations
        assert lp.complements is stage1[0].complements


@pytest.mark.parametrize("ds", list(datasets()), ids=lambda ds: f"n{ds.n}m{ds.m}s{ds.s}")
def test_bcc_programs_objective_and_bounds(ds, cfg):
    for o in range(ds.n):
        theta = evaluate_bcc(ds, o, cfg).theta
        phase1 = _bcc_program(ds, o)
        phase2 = _phase2_program(phase1, ds.n, theta)
        assert_objective_and_bounds(phase1, "min", *loop_bcc_bounds(ds))
        assert_objective_and_bounds(phase2, "max", *loop_bcc_bounds(ds, theta))
        for lp in (phase1, phase2):
            assert lp.relations == ("=",) * (ds.m + ds.s + 1)
            assert lp.complements.size == 0
        assert phase2.a is phase1.a and phase2.b is phase1.b
        assert phase2.relations is phase1.relations
        assert phase2.complements is phase1.complements
