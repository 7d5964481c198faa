"""One failure policy: every solve that is not optimal raises the error its
status means, named after the program, and the CLI exits with that error's
code."""

import json

import numpy as np
import pytest

from dea_closest import (AnalysisError, Solution, SolveStatus, SolverLimitError, efficiency,
                         evaluate_all, load_dataset, projection, reference_set, returns_to_scale)
from dea_closest.cli import main
from dea_closest.report import RunConfig, run
from dea_closest.solver.simplex import StandardizedLP

from conftest import EIGHT_DMU_CSV

ITERATION, NODE = SolveStatus.ITERATION_LIMIT, SolveStatus.NODE_LIMIT
INFEASIBLE, UNBOUNDED = SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED
OFF_FRONTIER = "intercept bounds requested at a point that is not on the efficient frontier"

# call site: (module, solver binding, which programs fail, command, subject).
# Every program of the site fails, so the first DMU that solves one names it.
# DMU1 and DMU2 solve no support LP: each lies strictly below or above every
# other efficient DMU in some coordinate.  DMU3 lies inside the face
# DMU2-DMU4 and solves one.
# BCC phase 1 and the upper intercept stage are the minimizations of their
# modules; BCC phase 2 and the lower intercept stage the maximizations.
SITES = {
    "bcc phase 1": (efficiency, "solve_lp", "min", "efficiency", "BCC phase 1 for DMU 'DMU1'"),
    "bcc phase 2": (efficiency, "solve_lp", "max", "efficiency", "BCC phase 2 for DMU 'DMU1'"),
    "projection stage": (projection, "solve_milp", "min", "project",
                         "projection of DMU 'DMU5' stage 1 (slack 1)"),
    "support LP": (reference_set, "solve_lp", "max", "mcrs", "support LP for DMU 'DMU3'"),
    "intercept maximization": (returns_to_scale, "solve_lp", "min", "rts",
                               "returns to scale of DMU 'DMU1': intercept maximization"),
    "intercept minimization": (returns_to_scale, "solve_lp", "max", "rts",
                               "returns to scale of DMU 'DMU2': intercept minimization"),
}

CASES = [
    *[(site, ITERATION, SolverLimitError, "hit the iteration limit") for site in SITES],
    ("projection stage", NODE, SolverLimitError, "hit the node limit"),
    *[(site, INFEASIBLE, AnalysisError, "returned infeasible")
      for site in SITES if site != "intercept maximization"],
    *[(site, UNBOUNDED, AnalysisError, "returned unbounded")
      for site in SITES if not site.startswith("intercept")],
]


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "table.csv"
    p.write_text(EIGHT_DMU_CSV, encoding="utf-8")
    return str(p)


def sense_of(lp) -> str:
    """The sense of a ``LinearProgram``, or of the program a
    ``StandardizedLP`` was standardized from."""
    if isinstance(lp, StandardizedLP):
        return "min" if lp.sense_sign > 0 else "max"
    return lp.sense


def fail_site(monkeypatch, site, status):
    module, binding, sense, command, subject = SITES[site]
    solve = getattr(module, binding)

    def failing(lp, cfg, *args, **kwargs):
        if sense_of(lp) == sense:
            return Solution(status, np.nan, None)
        return solve(lp, cfg, *args, **kwargs)

    monkeypatch.setattr(module, binding, failing)
    return command, subject


@pytest.mark.parametrize("site, status, error, outcome", CASES)
def test_each_status_maps_to_its_error_and_exit_code(table_path, capsys, monkeypatch,
                                                     site, status, error, outcome):
    command, subject = fail_site(monkeypatch, site, status)
    message = f"{subject} {outcome}"
    with pytest.raises(error) as raised:
        run(RunConfig(input_path=table_path, command=command))
    assert type(raised.value) is error and str(raised.value) == message
    assert main([command, "--input", table_path]) == error.exit_code
    assert capsys.readouterr().err == f"error: {error.label}{message}\n"


@pytest.mark.parametrize("site", ["intercept maximization", "intercept minimization"])
def test_unbounded_intercept_stage_means_a_point_off_the_frontier(table_path, capsys,
                                                                  monkeypatch, site):
    command, subject = fail_site(monkeypatch, site, UNBOUNDED)
    dmu_prefix = subject.split(": ")[0]
    assert main([command, "--input", table_path]) == 5
    assert capsys.readouterr().err == f"error: analysis: {dmu_prefix}: {OFF_FRONTIER}\n"


def test_infeasible_intercept_maximization_reads_as_no_upper_bound(table_path, monkeypatch):
    fail_site(monkeypatch, "intercept maximization", INFEASIBLE)
    bounds = [rec.rts_bounds for rec in run(RunConfig(input_path=table_path,
                                                      command="rts")).records]
    assert all(b.upper == np.inf and b.stage_count == 2 for b in bounds)


def test_support_lp_out_of_pivots_is_a_solver_limit(table_path, capsys):
    # BCC and projection ran out of pivots with exit 3 and the support LP
    # with exit 5; every spent budget is now a solver limit.  DMU3's is the
    # first support LP the mcrs command solves
    assert main(["mcrs", "--input", table_path, "--max-iterations", "2"]) == 3
    assert capsys.readouterr().err == ("error: solver limit: support LP for DMU 'DMU3' "
                                       "hit the iteration limit\n")


def test_deferred_phase2_fails_only_when_its_results_are_read(table_path, capsys, monkeypatch):
    # theta = 0.5 marks DMU6 inefficient whatever its slacks are, and no
    # report reads them, so its phase 2 waits for a reader: failing every
    # phase 2 pinned below theta = 1 - zero_tol leaves the report as it was,
    # and the first read of DMU6's slacks or lambdas raises the solve's error
    assert main(["report", "--input", table_path]) == 0
    clean = json.loads(capsys.readouterr().out)
    solve = efficiency.solve_lp

    def failing(lp, cfg, *args, **kwargs):
        if lp.sense == "max" and lp.lower[0] < 1.0 - cfg.zero_tol:
            return Solution(ITERATION, np.nan, None)
        return solve(lp, cfg, *args, **kwargs)

    monkeypatch.setattr(efficiency, "solve_lp", failing)
    assert main(["report", "--input", table_path]) == 0
    forced = json.loads(capsys.readouterr().out)
    for doc in (clean, forced):
        doc["meta"].pop("timings")
    assert forced == clean

    results = evaluate_all(load_dataset(table_path))
    assert results[5].theta == 0.5 and results[5].is_efficient is False
    for read in ("slacks", "lambdas", "slacks"):  # a failed solve is not kept as an answer
        with pytest.raises(SolverLimitError) as raised:
            getattr(results[5], read)
        assert str(raised.value) == "BCC phase 2 for DMU 'DMU6' hit the iteration limit"
    assert all(r.slacks.shape == (2,) for k, r in enumerate(results) if k != 5)
