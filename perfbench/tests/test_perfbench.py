"""Tests of the benchmark itself: generators, oracle, tracer arithmetic."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, tracing  # noqa: E402
from perfbench.oracle import Checker, bcc_theta, relative_slack  # noqa: E402
from perfbench.workloads import (WARMUP_INDEX, WORKLOADS, make_dataset, make_pool,  # noqa: E402
                                 write_csvs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_csvs(name, tmp_path):
    workload = WORKLOADS[name]
    first = write_csvs(make_pool(workload, 7)[:4], tmp_path / "a")
    second = write_csvs(make_pool(workload, 7)[:4], tmp_path / "b")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    other = make_pool(workload, 8)[:4]
    assert [p.read_text() for p in first] != [ds.csv for ds in other]


def _scaled(ds):
    return ds.x / ds.x.max(axis=0), ds.y / ds.y.max(axis=0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frontier_rts_datasets_are_all_efficient(seed):
    ds = make_dataset(WORKLOADS["frontier-rts"], seed, 0)
    x, y = _scaled(ds)
    assert ds.n == 50
    for o in range(ds.n):
        assert bcc_theta(x, y, x[o], y[o]) == pytest.approx(1.0, abs=1e-9)
        assert relative_slack(x, y, x[o], y[o])[0] <= 1e-9


def test_known_frontier_flags_match_highs():
    ds = make_dataset(WORKLOADS["proj-bnb"], 4, 0)
    x, y = _scaled(ds)
    for o, efficient in enumerate(ds.efficient):
        theta = bcc_theta(x, y, x[o], y[o])
        if efficient:
            assert theta == pytest.approx(1.0, abs=1e-9)
            assert relative_slack(x, y, x[o], y[o])[0] <= 1e-9
        else:
            assert theta < 0.99


def _span(i, name, start, end, parent):
    return tracing.Span(i, name, start, end, parent, "d")


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(0, "cli", 0.0, 10.0, None),
        _span(1, "efficiency", 1.0, 4.0, 0),
        _span(2, "projection", 3.0, 6.0, 0),     # overlaps its sibling on [3, 4]
        _span(3, tracing.LP, 2.0, 3.0, 1),
        _span(4, "report.render", 8.0, 12.0, 0),  # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0})


def test_layer_times_partition_the_root_spans():
    spans = [
        _span(0, "cli", 0.0, 10.0, None),
        _span(1, "data.load", 0.5, 1.0, 0),
        _span(2, "report.analyze", 1.0, 9.0, 0),
        _span(3, "efficiency", 1.5, 3.0, 2),
        _span(4, tracing.LP, 2.0, 2.5, 3),
        _span(5, "projection", 3.0, 8.0, 2),
        _span(6, "projection.build", 3.0, 3.5, 5),
        _span(7, tracing.MILP, 4.0, 7.5, 5),
        _span(8, "report.render", 9.0, 9.75, 0),
        _span(9, "cli", 20.0, 21.0, None),
    ]
    times = tracing.layer_times(spans)
    assert times["efficiency"] == pytest.approx(1.5)   # solver call included
    assert times["projection"] == pytest.approx(5.0)   # build and B&B included
    assert times["report.analyze"] == pytest.approx(8.0 - 1.5 - 5.0)
    assert times["cli"] == pytest.approx(0.5 + 0.25 + 1.0)
    assert sum(times.values()) == pytest.approx(11.0)


@pytest.fixture
def small_report(tmp_path):
    ds = make_dataset(WORKLOADS["proj-bnb"], 3, WARMUP_INDEX)
    [path] = write_csvs([ds], tmp_path)
    return ds, path


def test_layer_counters_sum_to_whole_run_counters(small_report, monkeypatch):
    from dea_closest.solver import branch_and_bound, simplex

    core = {"solves": 0, "pivots": 0}
    original = simplex.solve_standardized

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        core["solves"] += 1
        core["pivots"] += result[3]
        return result

    monkeypatch.setattr(simplex, "solve_standardized", counting)
    monkeypatch.setattr(branch_and_bound, "solve_standardized", counting)

    ds, path = small_report
    tracer = tracing.Tracer()
    call = harness.traced_call("report", tracer, ds, 0, path)
    assert call.ok
    m = tracing.layer_metrics(tracer.spans, call.seconds)
    assert m["projection.milp_solves"] > 0
    layer_pivots = (m["efficiency.pivots"] + m["projection.polish_pivots"]
                    + m["reference_set.pivots"] + m["returns_to_scale.pivots"])
    milp_pivots = sum(sp.attrs["pivots"] for sp in tracer.spans if sp.name == tracing.MILP)
    assert m["solver.simplex.pivots"] == layer_pivots + milp_pivots == core["pivots"]
    layer_lps = (m["efficiency.lp_solves"] + m["projection.lp_solves"]
                 + m["reference_set.lp_solves"] + m["returns_to_scale.lp_solves"])
    assert m["solver.simplex.solves"] == layer_lps + m["solver.branch_and_bound.nodes"]
    assert m["solver.simplex.solves"] == core["solves"]
    assert m["returns_to_scale.lp_solves"] == ds.n * (1 + m["returns_to_scale.stage2_share"])


def test_traced_and_untraced_reports_agree_and_pass_the_checker(small_report):
    ds, path = small_report
    plain = harness.timed_call("report", 0, path)
    traced = harness.traced_call("report", tracing.Tracer(), ds, 0, path)
    assert plain.ok and traced.ok
    assert harness.strip_timings(plain.output) == harness.strip_timings(traced.output)
    checker = Checker(ROOT / "src" / "dea_closest" / "schemas")
    assert checker.check(plain.output, ds) == {}


def test_checker_flags_a_wrong_score_and_a_wrong_weight(small_report):
    ds, path = small_report
    doc = json.loads(harness.timed_call("report", 0, path).output)
    checker = Checker(ROOT / "src" / "dea_closest" / "schemas")
    bad_theta = json.loads(json.dumps(doc))
    bad_theta["results"][1]["efficiency"]["theta"] += 1e-4
    assert set(checker.check(json.dumps(bad_theta), ds)) == {1}
    bad_weight = json.loads(json.dumps(doc))
    rec = next(r for r in bad_weight["results"] if len(r["mcrs"]["members"]) > 1)
    rec["mcrs"]["members"][0]["weight"] += 1e-3
    assert len(checker.check(json.dumps(bad_weight), ds)) == 1
    del bad_weight["results"][0]["efficiency"]
    assert len(checker.check(json.dumps(bad_weight), ds)) == ds.n


def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "proj-bnb",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_percentile_summary_needs_ten_samples_beyond():
    assert harness.percentile_summary([1.0] * 19)[0] == ""
    assert harness.percentile_summary(list(range(20)))[0] == "p50"
    assert harness.percentile_summary(list(range(1000)))[0] == "p99"
    assert np.isinf(harness.percentile_summary([1.0] * 5 + [np.inf] * 15)[1])
