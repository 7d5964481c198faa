import io

import numpy as np
import pytest

from dea_closest import (Dataset, ValidationError, default_priority, dump_dataset,
                         load_dataset, priority_from_labels)

from conftest import EIGHT_DMU_CSV, FOUR_DMU_CSV


def test_load_eight_dmu_table():
    ds = load_dataset(io.StringIO(EIGHT_DMU_CSV))
    assert (ds.n, ds.m, ds.s) == (8, 1, 1)
    assert ds.names == tuple(f"DMU{k}" for k in range(1, 9))
    assert ds.x[:, 0].tolist() == [1, 2, 3, 5, 8, 2, 3, 6]
    assert ds.y[:, 0].tolist() == [2, 5, 6, 8, 8, 1, 3, 4]


def test_load_four_dmu_table():
    ds = load_dataset(io.StringIO(FOUR_DMU_CSV))
    assert ds.x[:, 0].tolist() == [2, 3, 6, 4]
    assert ds.y[:, 0].tolist() == [2, 5, 6, 4]


def test_single_dmu_file():
    ds = load_dataset(io.StringIO("dmu,in:a,out:b\nonly,1,2\n"))
    assert ds.n == 1
    assert (ds.names, ds.x.tolist(), ds.y.tolist()) == (("only",), [[1.0]], [[2.0]])


def test_load_from_path(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(EIGHT_DMU_CSV, encoding="utf-8")
    assert load_dataset(p).n == 8
    assert load_dataset(str(p)).n == 8


@pytest.mark.parametrize("text,frag", [
    ("", "empty dataset"),
    ("name,in:a,out:b\nu,1,2\n", "row 1, column 1"),
    ("dmu,a,out:b\nu,1,2\n", "row 1, column 2"),
    ("dmu,out:b,in:a\nu,1,2\n", "must precede"),
    ("dmu,in:a\nu,1\n", "no output columns"),
    ("dmu,out:b\nu,1\n", "no input columns"),
    ("dmu,in:a,out:b\nu,x,2\n", "row 2, column 2"),
    ("dmu,in:a,out:b\nu,-1,2\n", "row 2, column 2: negative"),
    ("dmu,in:a,out:b\nu,1\n", "row 2"),
    ("dmu,in:a,out:b\nu,1,2,3\n", "row 2"),
    ("dmu,in:a,out:b\nu,1,2\nu,3,4\n", "row 3, column 1"),
    ("dmu,in:a,out:b\nu,0,0\n", "row 2: DMU 'u' has no positive input"),
    ("dmu,in:a,in:b,out:y\nA,0,0,1\nB,2,3,4\n", "row 2: DMU 'A' has no positive input"),
    ("dmu,in:a,out:b\nu,inf,2\n", "row 2, column 2"),
    ("dmu,in:a,out:b\nu,nan,2\n", "row 2, column 2: non-finite cell 'nan'"),
    # float() reads "1_0" as 10 and a fullwidth digit as its ASCII value
    ("dmu,in:a,out:b\nu,1_0,2\n", "row 2, column 2: cell '1_0' is not a plain decimal number"),
    ("dmu,in:a,out:b\nu,1,１\n", "row 2, column 3: cell '１' is not a plain decimal number"),
    ("dmu,in:a,out:b\n", "no DMU rows"),
    ("dmu,in:a,in:a,out:b\nC,1,2,3\n", "row 1, column 3: column header 'in:a' repeats"),
    ("dmu,in:a,out:b,out:b\nu,1,2,3\n", "row 1, column 4: column header 'out:b' repeats"),
    ("dmu,in:,out:b\nu,1,2\n", "row 1, column 2: column header 'in:' names no measure"),
    ("dmu,in:a,out:\nu,1,2\n", "row 1, column 3: column header 'out:' names no measure"),
])
def test_malformed_inputs_report_coordinates(text, frag):
    with pytest.raises(ValidationError) as err:
        load_dataset(io.StringIO(text))
    assert frag in str(err.value)


def test_plain_decimal_spellings_load():
    ds = load_dataset(io.StringIO("dmu,in:a,in:b,out:c,out:d\nu,1e3,+5,.5, 2.5 \n"))
    assert ds.x[0].tolist() == [1000.0, 5.0] and ds.y[0].tolist() == [0.5, 2.5]


def test_zero_components_allowed_when_not_all_zero():
    ds = load_dataset(io.StringIO("dmu,in:a,in:b,out:c\nu,0,1,2\nv,3,0,0\n"))
    assert ds.x.tolist() == [[0.0, 1.0], [3.0, 0.0]] and ds.y[1].tolist() == [0.0]


def test_round_trip_bit_for_bit():
    text = "dmu,in:a,out:b\nu1,0.1,2.30000000000000004\nu2,7,0.333333333333333315\n"
    ds = load_dataset(io.StringIO(text))
    assert_same_table(load_dataset(io.StringIO(dump_dataset(ds))), ds)


def assert_same_table(got, want):
    assert got.names == want.names
    assert np.array_equal(got.x, want.x)  # exact float equality through the round trip
    assert np.array_equal(got.y, want.y)


def test_round_trip_from_numpy_scalars():
    # numpy 2 reprs a float64 as "np.float64(1.0)"; the dump must write plain numbers
    ds = Dataset(("u1", "u2"),
                 [[np.float64(1.0), np.float64(0.1)], [np.float64(3.0), np.float64(7.0)]],
                 [[np.float64(2.5)], [np.float64(1 / 3)]], ("a", "b"), ("c",))
    assert_same_table(load_dataset(io.StringIO(dump_dataset(ds))), ds)


def two_dmus(v_output):
    return Dataset(("u", "v"), [[1.0], [2.0]], [[1.0], v_output], ("a",), ("b",))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected_programmatically(bad):
    with pytest.raises(ValidationError, match="'v'.*non-finite"):
        two_dmus([bad])


def test_negative_value_rejected_programmatically():
    with pytest.raises(ValidationError, match="DMU 'v' has a negative value"):
        two_dmus([-1.0])


def test_identically_zero_dmu_rejected_programmatically():
    with pytest.raises(ValidationError, match="DMU 'v' has no positive input"):
        Dataset(("u", "v"), [[1.0], [0.0]], [[1.0], [0.0]], ("a",), ("b",))


def test_dmu_without_a_positive_input_rejected_programmatically():
    # nothing dominates A, yet with every input zero it has no radial score
    with pytest.raises(ValidationError, match="DMU 'A' has no positive input"):
        Dataset(("A", "B", "C"), [[0.0, 0.0], [2.0, 3.0], [3.0, 1.0]], [[1.0], [4.0], [2.0]],
                ("a", "b"), ("y",))


def test_first_offending_dmu_is_named():
    with pytest.raises(ValidationError, match="DMU 'v' has a negative value"):
        Dataset(("u", "v", "w"), [[1.0], [-2.0], [-3.0]], [[1.0], [1.0], [1.0]], ("a",), ("b",))


@pytest.mark.parametrize("y", [[[1.0], [2.0], [3.0]], [[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]])
def test_wrong_shape_rejected_programmatically(y):
    with pytest.raises(ValidationError, match="inconsistent dimensions"):
        Dataset(("u", "v"), [[1.0], [2.0]], y, ("a",), ("b",))


def test_arrays_are_read_only_float64():
    ds = load_dataset(io.StringIO(FOUR_DMU_CSV))
    assert ds.x.dtype == ds.y.dtype == np.float64
    with pytest.raises(ValueError):
        ds.x[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.y[0, 0] = 99.0


def test_source_arrays_are_copied():
    x, y = np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])
    ds = Dataset(("u", "v"), x, y, ("a",), ("b",))
    x[0, 0] = y[0, 0] = 99.0
    assert ds.x.tolist() == [[1.0], [2.0]] and ds.y.tolist() == [[3.0], [4.0]]
    assert x.flags.writeable  # the caller's arrays are left writable


def test_dump_header_matches_contract():
    ds = load_dataset(io.StringIO(EIGHT_DMU_CSV))
    assert dump_dataset(ds).splitlines()[0] == "dmu,in:input,out:output"


def test_default_priority_outputs_first():
    p = default_priority(1, 1)
    assert p.order == (1, 0)
    p = default_priority(2, 2)
    assert p.order == (2, 3, 0, 1)
    with pytest.raises(ValidationError):
        default_priority(2, 0)


def test_priority_labels_roundtrip():
    ds = load_dataset(io.StringIO(EIGHT_DMU_CSV))
    p = priority_from_labels("out:output,in:input", ds)
    assert p.order == (1, 0)
    assert p.labels(ds) == ("out:output", "in:input")
    assert priority_from_labels("default", ds).order == (1, 0)


@pytest.mark.parametrize("spec,frag", [
    ("out:nope,in:input", "unknown slack label"),
    ("out:output,out:output", "listed twice"),
    ("out:output", "misses"),
])
def test_priority_spec_errors(spec, frag):
    ds = load_dataset(io.StringIO(EIGHT_DMU_CSV))
    with pytest.raises(ValidationError) as err:
        priority_from_labels(spec, ds)
    assert frag in str(err.value)


def test_duplicate_names_rejected_programmatically():
    with pytest.raises(ValidationError):
        Dataset(("u", "u"), [[1.0], [2.0]], [[1.0], [2.0]], ("a",), ("b",))


def test_measure_names_checked_programmatically():
    with pytest.raises(ValidationError, match="duplicate input name 'a'"):
        Dataset(("u",), [[1.0, 2.0]], [[1.0]], ("a", "a"), ("b",))
    with pytest.raises(ValidationError, match="empty output name"):
        Dataset(("u",), [[1.0]], [[1.0]], ("a",), ("",))
    # an input and an output may share a name: their slack labels differ
    ds = Dataset(("u",), [[1.0]], [[1.0]], ("a",), ("a",))
    assert ds.slack_labels() == ("in:a", "out:a")
    assert load_dataset(io.StringIO("dmu,in:a,out:a\nu,1,2\n")).slack_labels() == ("in:a", "out:a")
