"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them)."""

import time
from contextlib import contextmanager

import numpy as np

from dea_closest import (RtsLabel, SolveStatus, classify_rts, closest_projection,
                         closest_rts, default_priority, efficient_set, evaluate_bcc,
                         identify_mcrs, intercept_bounds, solve_lp, solve_milp)

from conftest import (enumerate_lp_optimum, enumerate_milp_optimum, random_box_lp,
                      random_complementarity_lp, random_dataset, reordered, with_dmu)


@contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS  {title}  ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_efficiency_classification(eight_dmu, cfg):
    with criterion(1, "efficiency classification on the 8-DMU table"):
        start = time.perf_counter()
        je = efficient_set(eight_dmu, cfg)
        elapsed = time.perf_counter() - start
        assert je.indices == (0, 1, 2, 3)
        for o in (4, 5, 6, 7):
            assert not evaluate_bcc(eight_dmu, o, cfg).is_efficient
        assert elapsed < 1.0


def test_criterion_2_closest_projections(eight_dmu, cfg):
    with criterion(2, "closest projections under output-before-input priority"):
        je = efficient_set(eight_dmu, cfg)
        pri = default_priority(1, 1)
        expected = {4: (5.0, 8.0), 5: (1.0, 2.0), 6: (4 / 3, 3.0), 7: (5 / 3, 4.0)}
        start = time.perf_counter()
        targets = {o: closest_projection(je, o, pri, cfg) for o in expected}
        elapsed = time.perf_counter() - start
        for o, (tx, ty) in expected.items():
            assert abs(targets[o].target_inputs[0] - tx) < 1e-4
            assert abs(targets[o].target_outputs[0] - ty) < 1e-4
        assert elapsed < 5.0


def test_criterion_3_mcrs_and_weights(eight_dmu, cfg):
    with criterion(3, "maximal closest reference sets and weights"):
        je = efficient_set(eight_dmu, cfg)
        pri = default_priority(1, 1)
        expected = {
            4: (("DMU4",), (1.0,)),
            5: (("DMU1",), (1.0,)),
            6: (("DMU1", "DMU2"), (2 / 3, 1 / 3)),
            7: (("DMU1", "DMU2"), (1 / 3, 2 / 3)),
        }
        for o, (names, weights) in expected.items():
            p = closest_projection(je, o, pri, cfg)
            mc = identify_mcrs(je, p, cfg)
            assert tuple(eight_dmu.names[j] for j in mc.members) == names
            by_name = dict(zip((eight_dmu.names[j] for j in mc.columns),
                               mc.lambda_max))
            for name, w in zip(names, weights):
                assert abs(by_name[name] - w) < 1e-4


def test_criterion_4_crts_labels(eight_dmu, cfg):
    with criterion(4, "closest returns-to-scale labels for inefficient units"):
        je = efficient_set(eight_dmu, cfg)
        pri = default_priority(1, 1)
        expected = {4: RtsLabel.DRS, 5: RtsLabel.IRS, 6: RtsLabel.IRS, 7: RtsLabel.IRS}
        for o, label in expected.items():
            assert closest_rts(je, o, pri, cfg).label is label


def test_criterion_5_rts_of_efficient_units(eight_dmu, four_dmu, cfg):
    with criterion(5, "returns to scale of the efficient units, both tables"):
        for ds, expected in (
            (eight_dmu, [RtsLabel.IRS, RtsLabel.CRS, RtsLabel.DRS, RtsLabel.DRS]),
            (four_dmu, [RtsLabel.IRS, RtsLabel.CRS, RtsLabel.DRS]),
        ):
            for o, label in enumerate(expected):
                b = intercept_bounds(ds, ds.x[o], ds.y[o], cfg)
                assert classify_rts(b, cfg) is label


def test_criterion_6_motivating_example(four_dmu, cfg):
    with criterion(6, "motivating example: D projects to (8/3, 4) with IRS"):
        je = efficient_set(four_dmu, cfg)
        r = closest_rts(je, 3, default_priority(1, 1), cfg)
        assert abs(r.projection.target_inputs[0] - 8 / 3) < 1e-6
        assert abs(r.projection.target_outputs[0] - 4.0) < 1e-6
        assert r.label is RtsLabel.IRS


def test_criterion_7_solver_oracle_equivalence(cfg):
    with criterion(7, "solver equals brute-force enumeration (200 LPs, 50 MILPs)"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240817)
        lp_feasible = 0
        for _ in range(200):
            lp = random_box_lp(rng)
            sol = solve_lp(lp, cfg)
            expected = enumerate_lp_optimum(lp)
            if expected is None:
                assert sol.status is SolveStatus.INFEASIBLE
            else:
                lp_feasible += 1
                assert sol.status is SolveStatus.OPTIMAL
                assert abs(sol.objective - expected) < 1e-7
        milp_feasible = 0
        for _ in range(50):
            lp = random_complementarity_lp(rng, max_pairs=10)
            sol = solve_milp(lp, cfg)
            expected = enumerate_milp_optimum(lp, cfg)
            if expected is None:
                assert sol.status is SolveStatus.INFEASIBLE
            else:
                milp_feasible += 1
                assert sol.status is SolveStatus.OPTIMAL
                assert abs(sol.objective - expected) < 1e-7
        elapsed = time.perf_counter() - start
        assert lp_feasible >= 100 and milp_feasible >= 20
        assert elapsed < 60.0


def test_criterion_8_property_suite(cfg):
    with criterion(8, "property suite over 50 random datasets"):
        start = time.perf_counter()
        rng = np.random.default_rng(895623)
        for _ in range(50):
            ds = random_dataset(rng, max_n=15, max_dim=3)
            je = efficient_set(ds, cfg)
            pri = default_priority(ds.m, ds.s)
            x, y = ds.x, ds.y
            idx = list(je.indices)

            slacks_by_name = {}
            for o in range(ds.n):
                p = closest_projection(je, o, pri, cfg)
                slacks_by_name[ds.names[o]] = p.slacks

                # dominance
                assert np.all(p.target_inputs <= x[o] + 1e-9)
                assert np.all(p.target_outputs >= y[o] - 1e-9)

                # frontier membership of the target
                ext = with_dmu(ds, "virtual-target", p.target_inputs, p.target_outputs)
                r = evaluate_bcc(ext, ext.n - 1, cfg)
                assert r.theta > 1.0 - 1e-6
                assert np.abs(r.slacks).max() < 1e-6

                # maximal weights reconstruct the target
                mc = identify_mcrs(je, p, cfg)
                assert np.abs(x[idx].T @ mc.lambda_max - p.target_inputs).max() < 1e-6
                assert np.abs(y[idx].T @ mc.lambda_max - p.target_outputs).max() < 1e-6
                assert set(mc.ucrs) <= set(mc.members)

                # exactly one label per frontier point
                b = intercept_bounds(ds, p.target_inputs, p.target_outputs, cfg)
                assert classify_rts(b, cfg) in (RtsLabel.IRS, RtsLabel.CRS, RtsLabel.DRS)

            # slack vectors do not depend on dataset order
            shuffled = reordered(ds, list(range(ds.n))[::-1])
            je2 = efficient_set(shuffled, cfg)
            for o2 in range(shuffled.n):
                p2 = closest_projection(je2, o2, pri, cfg)
                assert np.abs(p2.slacks - slacks_by_name[shuffled.names[o2]]).max() < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0
