import csv
import importlib
import io
import json
from importlib import resources

import numpy as np
import pytest

from dea_closest import (Solution, SolveStatus, ValidationError, load_dataset, reference_set,
                         returns_to_scale)
from dea_closest import cli, report
from dea_closest.cli import main
from dea_closest.report import RunConfig, analyze, emit_plot_data, run

from conftest import (EIGHT_DMU_CSV, FOUR_DMU_CSV, highs_intercept_both,
                      multiplier_intercept_program)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "table.csv"
    p.write_text(EIGHT_DMU_CSV, encoding="utf-8")
    return str(p)


@pytest.fixture(scope="module")
def four_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("data4") / "four.csv"
    p.write_text(FOUR_DMU_CSV, encoding="utf-8")
    return str(p)


def strip_timings(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    doc["meta"]["timings"] = {}
    return doc


def test_full_report_matches_reference_tables(table_path):
    report = run(RunConfig(input_path=table_path, command="report"))
    doc = report.to_dict()
    by_name = {rec["name"]: rec for rec in doc["results"]}

    assert [r["name"] for r in doc["results"]] == [f"DMU{k}" for k in range(1, 9)]
    for k in (1, 2, 3, 4):
        assert by_name[f"DMU{k}"]["efficiency"]["efficient"] is True
    for k in (5, 6, 7, 8):
        assert by_name[f"DMU{k}"]["efficiency"]["efficient"] is False

    assert by_name["DMU5"]["projection"]["target_inputs"] == [5.0]
    assert by_name["DMU7"]["projection"]["target_inputs"][0] == pytest.approx(4 / 3, abs=1e-4)
    assert [m["name"] for m in by_name["DMU8"]["mcrs"]["members"]] == ["DMU1", "DMU2"]
    assert by_name["DMU8"]["mcrs"]["members"][0]["weight"] == pytest.approx(1 / 3, abs=1e-4)
    assert by_name["DMU5"]["rts"]["label"] == "drs"
    assert by_name["DMU6"]["rts"]["label"] == "irs"
    assert by_name["DMU1"]["rts"]["intercept_lower"] == "-inf"
    assert by_name["DMU4"]["rts"]["intercept_upper"] == "+inf"


def test_efficiency_command_on_motivating_example(four_path):
    doc = run(RunConfig(input_path=four_path, command="efficiency")).to_dict()
    flags = {r["name"]: r["efficiency"]["efficient"] for r in doc["results"]}
    assert flags == {"A": True, "B": True, "C": True, "D": False}
    assert all("projection" not in r for r in doc["results"])


def test_subcommand_gating(table_path):
    levels = {
        "efficiency": ("efficiency",),
        "project": ("efficiency", "projection"),
        "mcrs": ("efficiency", "projection", "mcrs"),
        "rts": ("efficiency", "projection", "mcrs", "rts"),
        "report": ("efficiency", "projection", "mcrs", "rts"),
    }
    for command, keys in levels.items():
        doc = run(RunConfig(input_path=table_path, command=command)).to_dict()
        for rec in doc["results"]:
            present = tuple(k for k in ("efficiency", "projection", "mcrs", "rts") if k in rec)
            assert present == keys, (command, rec["name"])


def test_json_report_validates_against_schema(table_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(resources.files("dea_closest")
                        .joinpath("schemas/report-v2.schema.json").read_text())
    for command in ("efficiency", "report"):
        doc = run(RunConfig(input_path=table_path, command=command)).to_dict()
        assert doc["schema_version"] == "2"
        jsonschema.validate(doc, schema)


def test_reports_are_reproducible(table_path):
    a = run(RunConfig(input_path=table_path, command="report"))
    b = run(RunConfig(input_path=table_path, command="report"))
    assert strip_timings(a.to_dict()) == strip_timings(b.to_dict())
    assert a.to_csv() == b.to_csv()


def test_csv_json_parity_to_nine_digits(table_path):
    report = run(RunConfig(input_path=table_path, command="report"))
    doc = report.to_dict()
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    for rec, row in zip(doc["results"], rows):
        assert rec["name"] == row["name"]
        assert float(row["theta"]) == rec["efficiency"]["theta"]
        assert float(row["target_in:input"]) == rec["projection"]["target_inputs"][0]
        assert float(row["slack_in:input"]) == rec["projection"]["slacks"]["in:input"]
        weights = [float(w) for w in row["mcrs_weights"].split(";")]
        assert weights == [m["weight"] for m in rec["mcrs"]["members"]]
        assert row["rts"] == rec["rts"]["label"]
        for key, col in (("intercept_lower", "intercept_lower"),
                         ("intercept_upper", "intercept_upper")):
            v = rec["rts"][key]
            assert row[col] == (v if isinstance(v, str) else f"{v:.9g}")


def test_plot_data_contents(table_path, tmp_path):
    out = tmp_path / "plot.csv"
    run(RunConfig(input_path=table_path, command="report", plot_data_path=str(out)))
    rows = list(csv.reader(io.StringIO(out.read_text())))
    frontier = [(r[2], r[3]) for r in rows if r[0] == "frontier"]
    assert frontier == [("1", "2"), ("2", "5"), ("3", "6"), ("5", "8")]
    assert sum(1 for r in rows if r[0] == "observed") == 8
    arrows = {r[1]: (r[4], r[5]) for r in rows if r[0] == "projection"}
    assert set(arrows) == {"DMU5", "DMU6", "DMU7", "DMU8"}
    assert arrows["DMU7"] == ("1.33333333", "3")


def test_plot_data_with_efficiency_command_keeps_report_scoped(table_path, tmp_path):
    out = tmp_path / "plot.csv"
    report = run(RunConfig(input_path=table_path, command="efficiency",
                           plot_data_path=str(out)))
    assert out.exists()
    assert all("projection" not in rec for rec in report.to_dict()["results"])


def test_plot_data_rejects_multidimensional(tmp_path, cfg):
    csv_text = "dmu,in:a,in:b,out:c\nu1,1,2,3\nu2,2,1,3\n"
    p = tmp_path / "multi.csv"
    p.write_text(csv_text)
    report = analyze(load_dataset(p), RunConfig(input_path=str(p), command="report"))
    with pytest.raises(ValidationError):
        emit_plot_data(report, str(tmp_path / "plot.csv"))


def test_single_efficient_dmu_degenerate_frontier(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("dmu,in:a,out:b\nsolo,2,3\n")
    out = tmp_path / "plot.csv"
    report = run(RunConfig(input_path=str(p), command="report", plot_data_path=str(out)))
    doc = report.to_dict()
    assert doc["results"][0]["efficiency"]["efficient"] is True
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert [(r[2], r[3]) for r in rows if r[0] == "frontier"] == [("2", "3")]


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(input_path="x.csv", command="bogus")
    with pytest.raises(ValidationError):
        RunConfig(input_path="x.csv", output_format="xml")
    with pytest.raises(ValidationError):
        RunConfig(input_path="")


def test_cli_report_stdout(table_path, capsys):
    assert main(["report", "--input", table_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "report"
    assert len(doc["results"]) == 8


def test_cli_csv_format(table_path, capsys):
    assert main(["efficiency", "--input", table_path, "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "name,theta,efficient"


def test_cli_priority_spec(table_path, capsys):
    code = main(["project", "--input", table_path,
                 "--priority", "in:input,out:output"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["priority"] == ["in:input", "out:output"]


def test_cli_parser_is_built_once_and_keeps_no_options_between_calls(table_path, capsys):
    # the parser is cached per process; options of one call must not leak
    # into the next
    assert main(["project", "--input", table_path, "--priority", "in:input,out:output",
                 "--format", "csv"]) == 0
    capsys.readouterr()
    assert main(["project", "--input", table_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["priority"] == ["out:output", "in:input"]
    assert cli._build_parser() is cli._build_parser()


def test_cli_validation_exit_codes(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["efficiency", "--input", str(empty)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["efficiency", "--input", str(tmp_path / "missing.csv")]) == 4
    assert main(["report", "--input", str(empty), "--priority", "out:nope"]) == 2


def test_cli_reports_a_byte_that_is_not_utf8(tmp_path, capsys):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"dmu,in:a,out:b\nu,1,2\nCaf\xe9,2,3\n")
    assert main(["efficiency", "--input", str(latin1)]) == 2
    assert capsys.readouterr().err == "error: row 3: byte 0xe9 is not UTF-8 text\n"


def test_cli_reads_a_utf8_byte_order_mark(tmp_path, capsys):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + EIGHT_DMU_CSV.encode("utf-8"))
    assert main(["efficiency", "--input", str(bom)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in doc["results"]] == [f"DMU{k}" for k in range(1, 9)]
    # a stream opened without "utf-8-sig" hands the mark on as U+FEFF
    with open(bom, encoding="utf-8") as fh:
        assert load_dataset(fh).names == load_dataset(bom).names


@pytest.mark.parametrize("flag, value", [("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"),
                                         ("--tol", "inf"), ("--max-iterations", "0"),
                                         ("--max-nodes", "-3")])
def test_cli_rejects_out_of_range_settings(table_path, capsys, flag, value):
    assert main(["report", "--input", table_path, flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err


def test_cli_solver_limit_exit_code(table_path, capsys):
    assert main(["efficiency", "--input", table_path, "--max-iterations", "1"]) == 3
    assert "solver limit" in capsys.readouterr().err


def test_cli_analysis_error_exit_code(table_path, capsys, monkeypatch):
    # a support LP that finds only the zero solution leaves the target
    # aggregate at 0, which no convex representation allows; DMU3 solves the
    # first support LP, as DMU1 and DMU2 are certified alone
    def zero_solution(lp, cfg):
        return Solution(SolveStatus.OPTIMAL, 0.0, np.zeros(lp.n_vars))

    monkeypatch.setattr(reference_set, "solve_lp", zero_solution)
    assert main(["mcrs", "--input", table_path]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: analysis: support LP for DMU 'DMU3': target aggregate")


def test_cli_rts_solver_limit_names_dmu_and_stage(table_path, capsys, monkeypatch):
    def out_of_pivots(lp, cfg, *start):
        return Solution(SolveStatus.ITERATION_LIMIT, float("nan"), None)

    monkeypatch.setattr(returns_to_scale, "solve_lp", out_of_pivots)
    assert main(["report", "--input", table_path]) == 3
    assert capsys.readouterr().err == ("error: solver limit: returns to scale of DMU 'DMU1': "
                                       "intercept maximization hit the iteration limit\n")


def test_only_report_hands_bases_to_the_mcrs(table_path, monkeypatch):
    # the mcrs command solves no intercept LP, so its MCRS gets only the BCC
    # prices; report also hands over those of at least one intercept LP.
    # Both print the same MCRS
    handed = []
    identify = report.identify_mcrs

    def recording(*args, supports=()):
        handed.append(len(supports))
        return identify(*args, supports=supports)

    monkeypatch.setattr(report, "identify_mcrs", recording)
    mcrs = run(RunConfig(input_path=table_path, command="mcrs")).to_dict()
    assert handed == [1] * 8
    handed.clear()
    full = run(RunConfig(input_path=table_path, command="report")).to_dict()
    assert len(handed) == 8 and min(handed) >= 2
    assert [r["mcrs"] for r in full["results"]] == [r["mcrs"] for r in mcrs["results"]]


def test_rts_failure_is_reported_before_an_mcrs_failure(table_path, capsys, monkeypatch):
    # returns to scale runs before the MCRS for each DMU, so when both would
    # fail for DMU1, the returns-to-scale failure is the one reported
    def limit(lp, cfg, *start):
        return Solution(SolveStatus.ITERATION_LIMIT, np.nan, None)

    def zero_solution(lp, cfg):
        return Solution(SolveStatus.OPTIMAL, 0.0, np.zeros(lp.n_vars))

    monkeypatch.setattr(returns_to_scale, "solve_lp", limit)
    monkeypatch.setattr(reference_set, "solve_lp", zero_solution)
    assert main(["report", "--input", table_path]) == 3
    assert "returns to scale of DMU 'DMU1'" in capsys.readouterr().err


# every (module[:class], name) binding the benchmark tracer wraps, with the
# number of calls one ``report`` of the eight-DMU table makes through it; a
# binding the pipeline stops calling would leave its traced counters at 0.
# One stage-1 program is built per dataset and priority, and BCC phase 2 of
# DMU6, whose theta of 0.5 decides its flag, waits for a reader that report
# does not have.  DMU4 solves no BCC LP: DMU3's phase-1 basis holds its lambda
# column and prices every slack out, which certifies it efficient.  Of the
# efficient DMUs only DMU3, inside the face DMU2-DMU4, solves a support LP;
# the four inefficient targets solve one each
TRACED_CALLS = {
    ("report", "load_dataset"): 1,
    ("report", "analyze"): 1,
    ("report:AnalysisReport", "to_json"): 1,
    ("report", "evaluate_all"): 1,
    ("report", "closest_projection"): 8,
    ("report", "intercept_bounds"): 8,
    ("report", "identify_mcrs"): 8,
    ("projection", "build_stage_program"): 1,
    ("projection", "solve_milp"): 8,
    ("efficiency", "solve_lp"): 8,
    ("returns_to_scale", "solve_lp"): 12,
    ("reference_set", "solve_lp"): 5,
}


def test_cli_report_calls_every_traced_binding(table_path, capsys, monkeypatch):
    calls = dict.fromkeys(TRACED_CALLS, 0)

    def counting(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for key in TRACED_CALLS:
        module, _, cls = key[0].partition(":")
        owner = importlib.import_module(f"dea_closest.{module}")
        owner = getattr(owner, cls) if cls else owner
        monkeypatch.setattr(owner, key[1], counting(key, getattr(owner, key[1])))
    assert main(["report", "--input", table_path]) == 0
    assert len(json.loads(capsys.readouterr().out)["results"]) == 8
    assert calls == TRACED_CALLS


def test_cli_has_no_big_m_flag(table_path, capsys):
    with pytest.raises(SystemExit):
        main(["project", "--input", table_path, "--big-m", "10"])
    assert "--big-m" in capsys.readouterr().err


def test_cli_bad_priority_label(table_path, capsys):
    assert main(["report", "--input", table_path, "--priority", "out:wrong,in:input"]) == 2


def test_report_on_uniform_data_where_a_target_rounds_onto_a_dmu(tmp_path, capsys):
    # uniform[1, 100] (2,2) data, n=150, seed 7, 3 decimals: the closest
    # target of U52 is the efficient U133 moved by rounding, from which the
    # minimizing intercept stage started at lambda near 1e15, found no
    # blocking row and made report exit 5 ("not on the efficient frontier")
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    x = np.round(rng.uniform(1, 100, (150, 2)), 3)
    y = np.round(rng.uniform(1, 100, (150, 2)), 3)
    rows = [f"U{k + 1}," + ",".join(repr(float(v)) for v in (*x[k], *y[k])) for k in range(150)]
    path = tmp_path / "uniform.csv"
    path.write_text("\n".join(["dmu,in:x1,in:x2,out:y1,out:y2", *rows]) + "\n", encoding="utf-8")
    assert main(["report", "--input", str(path)]) == 0
    rec = next(r for r in json.loads(capsys.readouterr().out)["results"] if r["name"] == "U52")
    assert [m["name"] for m in rec["mcrs"]["members"]] == ["U133"]
    ds = load_dataset(str(path))
    px = np.array(rec["projection"]["target_inputs"])
    py = np.array(rec["projection"]["target_outputs"])
    assert rec["rts"]["stages"] == 2
    for sense, key in (("max", "intercept_upper"), ("min", "intercept_lower")):
        want = highs_intercept_both(multiplier_intercept_program(ds, px, py, sense), linprog)
        assert rec["rts"][key] == pytest.approx(want, rel=1e-8)  # 9 digits
