import io
import itertools

import numpy as np
import pytest

from dea_closest import (Frontier, LinearProgram, PriorityRanking, SolveStatus,
                         build_stage_program, closest_projection, default_priority,
                         derive_stage_program, efficient_set, evaluate_bcc, load_dataset,
                         projection, solve_lp, solve_milp)
from dea_closest.report import RunConfig, analyze
from dea_closest.solver import branch_and_bound, simplex
from dea_closest.solver.model import FEAS_TOL

from conftest import make_dataset, random_dataset, reordered, with_dmu


@pytest.fixture(scope="module")
def je8(eight_dmu, cfg):
    return efficient_set(eight_dmu, cfg)


@pytest.fixture(scope="module")
def je4(four_dmu, cfg):
    return efficient_set(four_dmu, cfg)


def out_first(ds):
    return default_priority(ds.m, ds.s)


def additive_max_slacks(ds, o, cfg):
    """Slack vector of a furthest (total-slack-maximal) projection."""
    n, m, s = ds.n, ds.m, ds.s
    x, y = ds.x, ds.y
    nv = n + m + s
    a = np.zeros((m + s + 1, nv))
    b = np.zeros(m + s + 1)
    for i in range(m):
        a[i, :n] = x[:, i]
        a[i, n + i] = 1.0
        b[i] = x[o, i]
    for r in range(s):
        a[m + r, :n] = y[:, r]
        a[m + r, n + m + r] = -1.0
        b[m + r] = y[o, r]
    a[m + s, :n] = 1.0
    b[m + s] = 1.0
    c = np.zeros(nv)
    c[n:] = 1.0
    sol = solve_lp(LinearProgram("max", c, a, ("=",) * (m + s + 1), b,
                                 np.zeros(nv), np.full(nv, np.inf)), cfg)
    assert sol.status is SolveStatus.OPTIMAL
    return sol.x[n:]


def test_stage_program_shape(eight_dmu, je8, cfg):
    # stage 1 for DMU7, output slack first: the objective touches only that slack
    lp = build_stage_program(je8, 6, target=1)
    t = je8.size
    assert lp.c[t + 1] == 1.0
    assert np.count_nonzero(lp.c) == 1
    assert lp.n_rows == 1 + 1 + 1 + t
    # one complementarity pair (lambda_k, d_k) per efficient DMU
    assert lp.complements.tolist() == [[k, t + 5 + k] for k in range(t)]
    # lambda capped by the convexity row, multipliers bounded below by one
    assert np.all(lp.upper[:t] == 1.0)
    assert np.all(lp.lower[t + 2: t + 4] == 1.0)
    assert lp.lower[t + 4] == -np.inf  # intercept free


def test_stage_program_pins_previous_optimum(eight_dmu, je8, cfg):
    first = build_stage_program(je8, 6, target=1)
    lp = derive_stage_program(first, [(1, 0.25)], target=0)
    t = je8.size
    assert lp.lower[t + 1] == lp.upper[t + 1] == 0.25
    with pytest.raises(ValueError):
        derive_stage_program(first, [(1, 0.0)], target=1)


def test_stage_one_output_slack_dmu7_is_zero(eight_dmu, je8, cfg):
    # frontier already reaches output level 3, so no shortfall is needed
    lp = build_stage_program(je8, 6, target=1)
    sol = solve_milp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_stage_milp_for_efficient_dmu_has_zero_optimum(eight_dmu, je8, cfg):
    lp = build_stage_program(je8, 1, target=1)
    sol = solve_milp(lp, cfg)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("o,target,slacks", [
    (4, (5.0, 8.0), (3.0, 0.0)),          # lands on DMU4
    (5, (1.0, 2.0), (1.0, 1.0)),          # lands on DMU1
    (6, (4 / 3, 3.0), (5 / 3, 0.0)),      # interior of DMU1-DMU2
    (7, (5 / 3, 4.0), (13 / 3, 0.0)),     # interior of DMU1-DMU2
])
def test_eight_dmu_closest_targets(eight_dmu, je8, cfg, o, target, slacks):
    p = closest_projection(je8, o, out_first(eight_dmu), cfg)
    assert p.target_inputs[0] == pytest.approx(target[0], abs=1e-6)
    assert p.target_outputs[0] == pytest.approx(target[1], abs=1e-6)
    assert p.slacks == pytest.approx(slacks, abs=1e-6)
    assert len(p.stages) == 2
    assert p.stages[0].slack_index == 1  # output minimized first


def test_motivating_example_projection(four_dmu, je4, cfg):
    # intersect output level 4 with the segment A(2,2)-B(3,5): x = (4+4)/3
    p = closest_projection(je4, 3, out_first(four_dmu), cfg)
    assert p.target_inputs[0] == pytest.approx(8 / 3, abs=1e-6)
    assert p.target_outputs[0] == pytest.approx(4.0, abs=1e-6)


def test_efficient_dmu_short_circuits(eight_dmu, je8, cfg):
    p = closest_projection(je8, 1, out_first(eight_dmu), cfg)
    assert p.stages == ()
    assert np.all(p.slacks == 0.0)
    assert p.target_inputs[0] == 2.0 and p.target_outputs[0] == 5.0


def test_lexicographic_monotonicity(eight_dmu, je8, cfg):
    for o in (4, 5, 6, 7):
        p = closest_projection(je8, o, out_first(eight_dmu), cfg)
        for earlier, later in zip(p.stages, p.stages[1:]):
            assert later.slacks[earlier.slack_index] == earlier.value


def test_stage_complementarity(eight_dmu, je8, cfg):
    for o in (4, 5, 6, 7):
        p = closest_projection(je8, o, out_first(eight_dmu), cfg)
        for st in p.stages:
            assert np.abs(st.lambdas * st.deviations).max() <= 1e-7
            assert st.lambdas.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(st.weights >= 1.0 - 1e-9)


def test_projection_dominates_dmu(eight_dmu, je8, cfg):
    for o in range(8):
        p = closest_projection(je8, o, out_first(eight_dmu), cfg)
        assert np.all(p.target_inputs <= eight_dmu.x[o] + 1e-9)
        assert np.all(p.target_outputs >= eight_dmu.y[o] - 1e-9)
        assert np.all(p.slacks >= 0.0)


def test_target_on_frontier(eight_dmu, four_dmu, cfg):
    for ds in (eight_dmu, four_dmu):
        je = efficient_set(ds, cfg)
        for o in range(ds.n):
            p = closest_projection(je, o, out_first(ds), cfg)
            ext = with_dmu(ds, "target", p.target_inputs, p.target_outputs)
            r = evaluate_bcc(ext, ext.n - 1, cfg)
            assert r.theta == pytest.approx(1.0, abs=1e-6)
            assert np.abs(r.slacks).max() < 1e-6


def test_slack_vector_invariant_under_reordering(eight_dmu, cfg):
    je = efficient_set(eight_dmu, cfg)
    pri = out_first(eight_dmu)
    base = {ds_name: closest_projection(je, o, pri, cfg).slacks
            for o, ds_name in enumerate(eight_dmu.names)}
    perm = [3, 6, 0, 7, 2, 5, 1, 4]
    shuffled = reordered(eight_dmu, perm)
    je2 = efficient_set(shuffled, cfg)
    for o2, name in enumerate(shuffled.names):
        p2 = closest_projection(je2, o2, pri, cfg)
        assert np.abs(p2.slacks - base[name]).max() < 1e-6


def test_input_first_priority_changes_tradeoff(eight_dmu, je8, cfg):
    # with the input slack minimized first, DMU6 keeps its input level:
    # cheapest input move is zero, then the output must climb to the frontier
    pri_in_first = PriorityRanking((0, 1), 1, 1)
    p = closest_projection(je8, 5, pri_in_first, cfg)
    assert p.slacks[0] == pytest.approx(0.0, abs=1e-6)
    assert p.target_inputs[0] == pytest.approx(2.0, abs=1e-6)
    assert p.target_outputs[0] == pytest.approx(5.0, abs=1e-6)  # frontier at x=2


def test_closest_no_longer_than_furthest(eight_dmu, je8, cfg):
    for o in (4, 5, 6, 7):
        p = closest_projection(je8, o, out_first(eight_dmu), cfg)
        ram = additive_max_slacks(eight_dmu, o, cfg)
        assert p.slacks.sum() <= ram.sum() + 1e-7
    # strictly closer for the two interior projections
    for o in (6, 7):
        p = closest_projection(je8, o, out_first(eight_dmu), cfg)
        ram = additive_max_slacks(eight_dmu, o, cfg)
        assert p.slacks.sum() < ram.sum() - 1e-6


def test_random_datasets_dominance_and_frontier(cfg):
    rng = np.random.default_rng(606)
    for _ in range(3):
        ds = random_dataset(rng, max_n=8)
        je = efficient_set(ds, cfg)
        pri = out_first(ds)
        for o in range(ds.n):
            p = closest_projection(je, o, pri, cfg)
            assert np.all(p.slacks >= -1e-9)
            ext = with_dmu(ds, "t", p.target_inputs, p.target_outputs)
            r = evaluate_bcc(ext, ext.n - 1, cfg)
            assert r.theta == pytest.approx(1.0, abs=1e-6)
            assert np.abs(r.slacks).max() < 1e-6


@pytest.fixture(scope="module")
def uniform15():
    """Seeded 15-DMU set with two inputs and two outputs from uniform[1, 100]."""
    rng = np.random.default_rng(0)
    return np.round(rng.uniform(1, 100, (15, 2)), 3), np.round(rng.uniform(1, 100, (15, 2)), 3)


def project_all(x, y, cfg):
    ds = make_dataset(x, y)
    je = efficient_set(ds, cfg)
    pri = out_first(ds)
    return ds, je, [closest_projection(je, o, pri, cfg) for o in range(ds.n)]


@pytest.fixture(scope="module")
def uniform15_projections(uniform15, cfg):
    return {f: project_all(uniform15[0] * f, uniform15[1] * f, cfg) for f in (1.0, 1e-3, 1e3)}


@pytest.mark.parametrize("factor", [1e-3, 1e3])
def test_slacks_scale_with_uniformly_rescaled_data(uniform15, uniform15_projections, factor):
    # the stage feasible sets map onto each other under uniform rescaling
    _, _, base = uniform15_projections[1.0]
    _, _, scaled = uniform15_projections[factor]
    assert any(p.stages for p in base)
    tol = 1e-9 * factor * max(uniform15[0].max(), uniform15[1].max())
    for p, q in zip(base, scaled):
        assert np.abs(q.slacks - factor * p.slacks).max() <= tol


@pytest.mark.parametrize("factor", [1.0, 1e-3, 1e3])
def test_stage_points_satisfy_rows_and_bounds(uniform15_projections, factor):
    ds, je, projections = uniform15_projections[factor]
    for p in projections:
        first = build_stage_program(je, p.dmu, p.priority.order[0])
        pinned = []
        for st in p.stages:
            lp = derive_stage_program(first, pinned, st.slack_index)
            z = np.concatenate([st.lambdas, st.slacks, st.weights, [st.intercept],
                                st.deviations])
            scale = np.abs(lp.a) @ np.abs(z) + np.abs(lp.b)
            assert np.all(np.abs(lp.a @ z - lp.b) <= 1e-9 * (1.0 + scale))
            assert np.all(z >= lp.lower - 1e-7 * (1.0 + np.abs(lp.lower)))
            assert np.all(z <= lp.upper + 1e-7 * (1.0 + np.abs(lp.upper)))
            pairs = lp.complements
            assert np.minimum(z[pairs[:, 0]], z[pairs[:, 1]]).max() <= 1e-8
            pinned.append((st.slack_index, st.value))


def test_warm_start_prunes_stage_nodes(monkeypatch, cfg):
    # starting each stage's root from the previous stage's final basis must
    # prune branch-and-bound nodes; on this dataset (n=12, m=s=2, 6 efficient)
    # the stages of the inefficient DMUs took 132 nodes warm and 146 cold
    ds = random_dataset(np.random.default_rng(7), max_n=12, max_dim=2)
    je = efficient_set(ds, cfg)
    pri = default_priority(ds.m, ds.s)

    def stage_nodes(keep_warm_start):
        nodes = []

        def counting(lp, cfg, warm_start=None):
            sol = solve_milp(lp, cfg, warm_start=warm_start if keep_warm_start else None)
            nodes.append(sol.nodes)
            return sol

        monkeypatch.setattr(projection, "solve_milp", counting)
        slacks = [closest_projection(je, o, pri, cfg).slacks
                  for o in range(ds.n) if o not in je]
        return sum(nodes), np.array(slacks)

    warm, warm_slacks = stage_nodes(True)
    cold, cold_slacks = stage_nodes(False)
    assert warm < cold
    assert np.abs(warm_slacks - cold_slacks).max() < 1e-9


def chained_projections(ds, pri):
    """Every DMU's projection as ``report.analyze`` computes them: in
    dataset order over one frontier."""
    report = analyze(ds, RunConfig("chained.csv", command="project"), pri)
    return [rec.projection for rec in report.records]


def projection_bits(p):
    """Everything a projection holds, as raw bytes."""
    stages = tuple(
        (st.stage, st.slack_index, np.float64(st.value).tobytes(),
         np.float64(st.intercept).tobytes(), st.lambdas.tobytes(), st.slacks.tobytes(),
         st.weights.tobytes(), st.deviations.tobytes())
        for st in p.stages)
    return (p.dmu, p.target_inputs.tobytes(), p.target_outputs.tobytes(), p.slacks.tobytes(),
            stages)


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_report_projections_equal_separate_calls_in_dataset_order(cfg, seed):
    # report passes nothing from one DMU's projection to the next: its
    # projections are, bit for bit, those of separate closest_projection
    # calls in dataset order over one frontier
    ds = random_dataset(np.random.default_rng(seed), max_n=30, max_dim=2)
    pri = default_priority(ds.m, ds.s)
    frontier = efficient_set(ds, cfg)
    separate = [closest_projection(frontier, o, pri, cfg) for o in range(ds.n)]
    chained = chained_projections(ds, pri)
    assert ds.n - frontier.size >= 9
    for p, q in zip(chained, separate):
        assert projection_bits(p) == projection_bits(q), ds.names[p.dmu]


@pytest.mark.parametrize("path", ["report", "calls"])
def test_stage1_roots_start_from_the_first_dmus_root(monkeypatch, cfg, path):
    # the stage-1 programs of all DMUs over one frontier differ only in the
    # DMU's own values, so each starts from the root basis of the first one
    # solved, which the frontier keeps: in report and in separate calls
    # alike only the first inefficient DMU's stage-1 root is solved cold,
    # and the targets and slacks are those of DMUs projected cold, each
    # over a frontier of its own
    ds = random_dataset(np.random.default_rng(7), max_n=12, max_dim=2)
    je = efficient_set(ds, cfg)
    pri = default_priority(ds.m, ds.s)
    alone = [closest_projection(Frontier(ds, je.indices), o, pri, cfg) for o in range(ds.n)]

    cold_runs = []
    run_cold = simplex._Simplex._run_cold

    def counting_cold(self, c):
        cold_runs.append(self)
        return run_cold(self, c)

    root_cold = []  # per MILP, whether its root ran a cold solve
    # (start, solution, index into root_cold) of each stage 1, the only MILP
    # minimizing the first slack
    stage1 = []
    solve_node = branch_and_bound.solve_standardized

    def node(std, cfg, start=None, box=None):
        before = len(cold_runs)
        out = solve_node(std, cfg, start, box)
        if root_cold[-1] is None:
            root_cold[-1] = len(cold_runs) > before
        return out

    def milp(lp, cfg, warm_start=None):
        root_cold.append(None)
        sol = solve_milp(lp, cfg, warm_start=warm_start)
        if lp.c[je.size + pri.order[0]] == 1.0:
            stage1.append((warm_start, sol, len(root_cold) - 1))
        return sol

    monkeypatch.setattr(simplex._Simplex, "_run_cold", counting_cold)
    monkeypatch.setattr(branch_and_bound, "solve_standardized", node)
    monkeypatch.setattr(projection, "solve_milp", milp)
    if path == "report":
        projections = chained_projections(ds, pri)
    else:
        frontier = Frontier(ds, je.indices)
        projections = [closest_projection(frontier, o, pri, cfg) for o in range(ds.n)]

    inefficient = ds.n - je.size
    assert inefficient >= 3 and len(stage1) == inefficient
    assert len(root_cold) <= inefficient * (ds.m + ds.s)
    assert [root_cold[k] for _, _, k in stage1] == [True] + [False] * (inefficient - 1)
    root = stage1[0][1].root_basis
    assert stage1[0][0] is None and root is not None
    assert all(start is root for start, _, _ in stage1[1:])
    for p, q in zip(projections, alone):
        assert np.abs(p.target_inputs - q.target_inputs).max() <= 1e-9
        assert np.abs(p.target_outputs - q.target_outputs).max() <= 1e-9
        assert np.abs(p.slacks - q.slacks).max() <= 1e-9


def test_one_stage1_build_per_frontier_and_first_slack(monkeypatch, cfg):
    # a frontier builds one stage-1 program per first slack and derives every
    # later call's from it; it keeps that program with the root basis of the
    # stage 1 it was built for
    ds = random_dataset(np.random.default_rng(7), max_n=12, max_dim=2)
    frontier = efficient_set(ds, cfg)
    slack_count = ds.m + ds.s
    priorities = (default_priority(ds.m, ds.s),
                  PriorityRanking(tuple(range(slack_count)), ds.m, ds.s))
    assert priorities[0].order[0] != priorities[1].order[0]
    built = []  # (first slack, program) of every build
    solves = []  # (program, solution) of every stage solve
    build = projection.build_stage_program

    def building(frontier, o, target):
        built.append((target, build(frontier, o, target)))
        return built[-1][1]

    def milp(lp, cfg, warm_start=None):
        solves.append((lp, solve_milp(lp, cfg, warm_start=warm_start)))
        return solves[-1][1]

    monkeypatch.setattr(projection, "build_stage_program", building)
    monkeypatch.setattr(projection, "solve_milp", milp)
    for _ in range(2):
        for pri in priorities:
            for o in range(ds.n):
                closest_projection(frontier, o, pri, cfg)
    assert [target for target, _ in built] == [pri.order[0] for pri in priorities]
    assert sorted(frontier.stage_templates) == sorted(target for target, _ in built)
    for target, program in built:
        kept, root = frontier.stage_templates[target]
        own = [sol for lp, sol in solves if lp is program]
        assert kept is program and len(own) == 1
        assert root is own[0].root_basis and root is not None


# 12 DMUs, 6 of them on a known frontier: the final stage of U3 (priority
# outputs first, then inputs) leaves in:x2 at 1.9e-14 where its optimum is 0
NOISY_SLACK_CSV = """dmu,in:x1,in:x2,out:y1,out:y2
U1,67.513,49.346,11.238,107.515
U2,33.552,21.721,26.77,37.814
U3,37.022,11.362,29.555,43.26
U4,12.27,5.845,19.882,37.632
U5,4.588,22.237,32.609,40.239
U6,83.649,50.297,18.222,81.497
U7,77.504,55.449,17.848,84.85
U8,60.714,38.307,22.594,65.799
U9,90.168,3.988,60.421,75.927
U10,60.598,29.251,27.967,90.569
U11,62.57,39.254,21.445,65.087
U12,59.36,47.707,25.0,100.408
"""


def test_final_slack_within_tolerance_of_the_dmu_reads_as_zero():
    # the stage snapshots and pins keep what the solver returned; the
    # projection reports a slack within FEAS_TOL * (1 + |own value|) as 0
    # and moves the target by exactly the reported slacks
    ds = load_dataset(io.StringIO(NOISY_SLACK_CSV))
    projections = chained_projections(ds, default_priority(ds.m, ds.s))
    u3 = projections[ds.names.index("U3")]
    assert 0.0 <= u3.stages[-1].slacks[1] <= FEAS_TOL * (1.0 + ds.x[2, 1])
    assert u3.slacks[1] == 0.0 and u3.target_inputs[1] == ds.x[2, 1]
    for o, p in enumerate(projections):
        own = np.concatenate([ds.x[o], ds.y[o]])
        assert np.all((p.slacks == 0.0) | (p.slacks > FEAS_TOL * (1.0 + own)))
        assert np.array_equal(p.target_inputs, ds.x[o] - p.slacks[:ds.m])
        assert np.array_equal(p.target_outputs, ds.y[o] + p.slacks[ds.m:])


def test_warm_started_stages_stay_within_five_pivots_per_node(monkeypatch, cfg):
    # every node resumes from its parent's basis and every stage root from
    # the previous stage's; cold-starting every node took about 15 pivots per
    # node on the dataset of test_warm_start_prunes_stage_nodes
    ds = random_dataset(np.random.default_rng(7), max_n=12, max_dim=2)
    je = efficient_set(ds, cfg)
    pri = default_priority(ds.m, ds.s)
    solves = []

    def counting(lp, cfg, warm_start=None):
        sol = solve_milp(lp, cfg, warm_start=warm_start)
        solves.append(sol)
        return sol

    monkeypatch.setattr(projection, "solve_milp", counting)
    for o in range(ds.n):
        closest_projection(je, o, pri, cfg)
    nodes = sum(sol.nodes for sol in solves)
    assert nodes > 0
    assert sum(sol.iterations for sol in solves) <= 5 * nodes


def test_degenerate_dual_pivots_switch_to_bland_and_finish(monkeypatch, cfg):
    # draw 62 of the acceptance property suite's stream (the suite itself
    # takes the first 50): a child node of DMU U8's stages takes more than
    # DEGEN_LIMIT degenerate dual pivots in a row; Dantzig's choice alone
    # cycles there until the iteration limit
    rng = np.random.default_rng(895623)
    for _ in range(62):
        ds = random_dataset(rng, max_n=15, max_dim=3)
    je = efficient_set(ds, cfg)
    pri = default_priority(ds.m, ds.s)

    switched = []
    original = simplex._Simplex._dual_loop

    def watching(self, *args):
        outcome = original(self, *args)
        switched.append(self.bland)
        return outcome

    statuses = []

    def solving(lp, cfg, warm_start=None):
        sol = solve_milp(lp, cfg, warm_start=warm_start)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(simplex._Simplex, "_dual_loop", watching)
    monkeypatch.setattr(projection, "solve_milp", solving)
    warm = closest_projection(je, 7, pri, cfg)
    assert any(switched)
    assert statuses and all(st is SolveStatus.OPTIMAL for st in statuses)

    # the same slacks as with every stage solved cold
    monkeypatch.setattr(projection, "solve_milp",
                        lambda lp, cfg, warm_start=None: solve_milp(lp, cfg))
    cold = closest_projection(je, 7, pri, cfg)
    assert np.abs(warm.slacks - cold.slacks).max() <= 1e-9 * (1.0 + np.abs(cold.slacks).max())


# 12 DMUs, 6 of them on a known frontier, with every column rescaled by a
# power of ten (inputs near 1e5 and 1e-1, outputs near 1e2 and 1e3)
RESCALED_UNITS_CSV = """dmu,in:x1,in:x2,out:y1,out:y2
U1,679590.0,1.18293,396.12,8734.6
U2,152720.0,0.94916,603.71,8587.300000000001
U3,829430.0,0.41511000000000003,703.8,8655.6
U4,554100.0,0.03728,710.34,2946.1
U5,798190.0,0.41767000000000004,575.9599999999999,6534.4
U6,386500.0,0.65091,317.46,5218.2
U7,710230.0,0.6879600000000001,369.73999999999995,6238.1
U8,516700.0,0.95096,501.38,11028.5
U9,524770.0,0.62078,506.84,5469.5
U10,755980.0,0.54276,526.13,10109.0
U11,318710.0,0.42908999999999997,327.78,8002.299999999999
U12,1018420.0,0.7186100000000001,488.65999999999997,8733.199999999999
"""


def highs_stage_optimum(lp, linprog):
    """Smallest stage objective over every choice of the zeroed member of each
    complementarity pair, each choice an LP solved by HiGHS; None when HiGHS
    finds none of them feasible."""
    best = None
    for sides in itertools.product((0, 1), repeat=len(lp.complements)):
        lo, up = lp.lower.copy(), lp.upper.copy()
        zeroed = lp.complements[np.arange(len(sides)), list(sides)]
        lo[zeroed] = up[zeroed] = 0.0
        res = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, bounds=np.column_stack([lo, up]),
                      method="highs")
        if res.status == 0:
            best = res.fun if best is None else min(best, res.fun)
    return best


def check_stage_optima_against_highs(ds, je, projections, linprog):
    """Compare every stage optimum of every inefficient DMU with the HiGHS
    enumeration; returns the names of the DMUs checked at every stage."""
    checked = []
    for o, p in enumerate(projections):
        if o in je:
            continue
        own = np.concatenate([ds.x[o], ds.y[o]])
        first = build_stage_program(je, o, p.priority.order[0])
        pinned = []
        for st in p.stages:
            # each stage is enumerated under the pins the solver itself found,
            # so a wrong stage fails here rather than in a later one
            lp = derive_stage_program(first, pinned, st.slack_index)
            expected = highs_stage_optimum(lp, linprog)
            if expected is None:
                break  # HiGHS finds no feasible fixing: no reference for this DMU
            assert abs(st.value - expected) <= 1e-6 * own[st.slack_index], (
                f"{ds.names[o]} stage {st.stage}: {st.value} against {expected}")
            pinned.append((st.slack_index, st.value))
        else:
            checked.append(ds.names[o])
    return checked


def test_stage_optima_match_highs_on_rescaled_columns(cfg):
    # every stage optimum of every inefficient DMU against an independent
    # enumeration, each DMU projected over a frontier of its own, so that its
    # stage-1 root is solved cold.  A branch-and-bound node relaxation that
    # stopped short of its optimum once pruned the branch holding U5's
    # stage-1 optimum (slack out:y1): 58.98 came back where HiGHS finds 0
    linprog = pytest.importorskip("scipy.optimize").linprog
    ds = load_dataset(io.StringIO(RESCALED_UNITS_CSV))
    je = efficient_set(ds, cfg)
    pri = default_priority(ds.m, ds.s)
    projections = [closest_projection(Frontier(ds, je.indices), o, pri, cfg)
                   for o in range(ds.n)]
    checked = check_stage_optima_against_highs(ds, je, projections, linprog)
    assert "U5" in checked and len(checked) >= 5


def test_chained_stage_optima_match_highs_on_rescaled_columns(cfg):
    # the same enumeration with the DMUs projected as report.analyze does:
    # on these badly scaled columns each stage-1 root after the first
    # re-optimizes from the first DMU's root basis instead of starting cold
    linprog = pytest.importorskip("scipy.optimize").linprog
    ds = load_dataset(io.StringIO(RESCALED_UNITS_CSV))
    je = efficient_set(ds, cfg)
    projections = chained_projections(ds, default_priority(ds.m, ds.s))
    checked = check_stage_optima_against_highs(ds, je, projections, linprog)
    assert "U5" in checked and len(checked) >= 5


def test_cold_node_relaxations_match_highs_on_rescaled_columns(cfg):
    # U5's stage-1 relaxation with one lambda zeroed at a time, as a
    # branch-and-bound child sees it, solved cold.  When every improving
    # column's blocking pivot failed a relative size test, the simplex once
    # reported that vertex as optimal: 104.84 for lambda 4 where HiGHS finds 0
    linprog = pytest.importorskip("scipy.optimize").linprog
    ds = load_dataset(io.StringIO(RESCALED_UNITS_CSV))
    je = efficient_set(ds, cfg)
    o = ds.names.index("U5")
    target = default_priority(ds.m, ds.s).order[0]
    stage = build_stage_program(je, o, target)
    own = np.concatenate([ds.x[o], ds.y[o]])[target]
    for k in range(je.size):
        lower, upper = stage.lower.copy(), stage.upper.copy()
        lower[k] = upper[k] = 0.0
        lp = LinearProgram(stage.sense, stage.c, stage.a, stage.relations, stage.b,
                           lower, upper)
        sol = solve_lp(lp, cfg)
        res = linprog(lp.c, A_eq=lp.a, b_eq=lp.b, bounds=np.column_stack([lower, upper]),
                      method="highs")
        assert res.status == 0 and sol.status is SolveStatus.OPTIMAL, f"lambda {k}"
        assert abs(sol.objective - res.fun) <= 1e-6 * own, (
            f"lambda {k}: {sol.objective} against {res.fun}")
