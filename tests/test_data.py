"""Dataset ingestion, grouping, resampling, and splitting."""
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (design_matrix_hstack, groups_rowwise, load_dataset_rowwise,
                     positive_rate)

from otfair import data, synthetic
from otfair.data import (Dataset, InfeasibleRateError, RowError, Schema,
                         SchemaError, UnfairnessSchedule, _build_groups,
                         load_dataset, resample_positive_rate, train_test_split)

CSV = """age,color,group,label
1.0,red,a,1
2.0,blue,a,0
3.0,red,b,1
4.0,green,b,0
5.0,red,a,1
"""

SPEC = {"age": "feature:numeric", "color": "feature:categorical",
        "group": "sensitive", "label": "label"}


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_schema_requires_exactly_one_label():
    with pytest.raises(SchemaError):
        Schema.from_dict({"a": "feature", "g": "sensitive"})
    with pytest.raises(SchemaError):
        Schema.from_dict({"a": "label", "b": "label", "g": "sensitive"})


def test_schema_requires_sensitive_column():
    with pytest.raises(SchemaError):
        Schema.from_dict({"a": "feature", "y": "label"})


def test_schema_rejects_unknown_role():
    with pytest.raises(SchemaError):
        Schema.from_dict({"a": "wat", "g": "sensitive", "y": "label"})


@pytest.mark.parametrize("column,value", [
    ("a", "feature:numerc"), ("g", "sensitive:medain"), ("y", "label:numeric")])
def test_schema_rejects_an_encoding_its_role_lacks_before_the_file_is_read(
        tmp_path, column, value):
    schema = {"a": "feature", "g": "sensitive", "y": "label", column: value}
    role, _, encoding = value.partition(":")
    with pytest.raises(SchemaError, match=rf"^unknown {role} encoding "
                                          rf"'{encoding}' for column '{column}'"):
        load_dataset(str(tmp_path / "missing.csv"), schema)


def test_load_standardizes_numeric_features(tmp_path):
    ds = load_dataset(_write(tmp_path, CSV), SPEC)
    age = ds.X[:, ds.feature_names.index("age")]
    assert abs(age.mean()) < 1e-12
    assert abs(age.std() - 1.0) < 1e-12


def test_load_one_hot_drops_first_level(tmp_path):
    ds = load_dataset(_write(tmp_path, CSV), SPEC)
    # levels sorted: blue, green, red -> columns for green and red only
    assert "color=green" in ds.feature_names
    assert "color=red" in ds.feature_names
    assert "color=blue" not in ds.feature_names


def test_load_drops_rows_with_missing_cells(tmp_path):
    text = CSV + "?,red,a,1\n6.0,,b,0\n"
    ds = load_dataset(_write(tmp_path, text), SPEC)
    assert ds.n == 5


def test_load_raises_on_ragged_row(tmp_path):
    with pytest.raises(RowError):
        load_dataset(_write(tmp_path, CSV + "1.0,red,a\n"), SPEC)


DROPPED_THEN_BAD = "a,x,y\nm,1.0,0\nf,?,1\nm,2.0,1\nf,{bad},0\n"


def test_load_names_the_data_row_after_a_dropped_row(tmp_path):
    # Data row 1 is dropped for its '?', so the bad cell is data row 3,
    # the row the cell-count check would name.
    text = DROPPED_THEN_BAD.format(bad="oops")
    spec = {"a": "sensitive", "x": "feature:numeric", "y": "label"}
    with pytest.raises(RowError, match=r"^row 3: cannot parse 'oops' in column 'x'"):
        load_dataset(_write(tmp_path, text), spec)
    with pytest.raises(RowError, match=r"^row 3: expected 3 cells"):
        load_dataset(_write(tmp_path, DROPPED_THEN_BAD.format(bad="1,2")), spec)


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
@pytest.mark.parametrize("spec", [
    {"a": "sensitive", "x": "feature", "y": "label"},
    {"a": "feature", "x": "sensitive:median", "y": "label"}])
def test_load_rejects_non_finite_numbers_by_row_and_column(tmp_path, bad, spec):
    text = DROPPED_THEN_BAD.format(bad=bad)
    with pytest.raises(RowError, match=rf"^row 3: non-finite value '{bad}' in column 'x'$"):
        load_dataset(_write(tmp_path, text), spec)


def test_load_missing_column_raises(tmp_path):
    with pytest.raises(SchemaError):
        load_dataset(_write(tmp_path, CSV),
                     {"nope": "feature", "group": "sensitive", "label": "label"})


def test_load_whitespace_delimiter(tmp_path):
    text = CSV.replace(",", " ")
    ds = load_dataset(_write(tmp_path, text, "data.txt"), SPEC)
    assert ds.n == 5


@pytest.mark.parametrize("sep", [",", " "])
def test_load_skips_leading_blank_lines_before_detecting_the_delimiter(
        tmp_path, sep):
    text = CSV.replace(",", sep)
    blank = _loaded(load_dataset, _write(tmp_path, "\n\n" + text), SPEC)
    assert blank == _loaded(load_dataset, _write(tmp_path, text, "ref.csv"), SPEC)
    assert blank == _loaded(load_dataset_rowwise, _write(tmp_path, "\n" + text),
                            SPEC)
    assert not isinstance(blank[0], type)  # loaded, not an error


@pytest.mark.parametrize("load", [load_dataset, load_dataset_rowwise])
def test_load_skips_a_line_of_spaces_before_the_header(tmp_path, load):
    spaced = _loaded(load, _write(tmp_path, "\n \n" + CSV), SPEC)
    assert spaced == _loaded(load, _write(tmp_path, CSV, "ref.csv"), SPEC)
    assert not isinstance(spaced[0], type)  # loaded, not an error


def test_load_skips_whitespace_lines_between_rows_like_blank_lines(tmp_path):
    head, rest = CSV.split("\n", 1)
    blank = _loaded(load_dataset, _write(tmp_path, f"{head}\n\n{rest}"), SPEC)
    for gap in (" ", "\t ", " , ,,, "):
        path = _write(tmp_path, f"{head}\n{gap}\n{rest}", "gap.csv")
        assert _loaded(load_dataset, path, SPEC) == blank
        assert _loaded(load_dataset_rowwise, path, SPEC) == blank


@pytest.mark.parametrize("n,levels", [(0, 2), (1, 2), (50, 2), (2_000, 3),
                                      (2_000, 40)])
def test_build_groups_matches_the_rowwise_oracle(n, levels):
    A = np.random.default_rng(n + levels).integers(0, levels, (n, 3))
    got, want = _build_groups(A), groups_rowwise(A)
    assert list(got) == list(want)  # first-row order
    assert all(type(c) is int for key in got for c in key)
    for key, idx in want.items():
        assert got[key].dtype == idx.dtype
        assert got[key].tolist() == idx.tolist()


def test_groups_partition_rows(tmp_path):
    ds = load_dataset(_write(tmp_path, CSV), SPEC)
    all_idx = np.sort(np.concatenate(list(ds.groups.values())))
    assert np.array_equal(all_idx, np.arange(ds.n))


def test_label_mapping_is_sorted_levels(tmp_path):
    ds = load_dataset(_write(tmp_path, CSV), SPEC)
    # levels sorted: '0' < '1' when labels are already 0/1 strings
    assert ds.y.tolist() == [1, 0, 1, 0, 1]


def test_median_sensitive_encoding(tmp_path):
    text = "x,s,y\n1,10,0\n2,20,1\n3,30,0\n4,40,1\n"
    ds = load_dataset(_write(tmp_path, text),
                      {"x": "feature", "s": "sensitive:median", "y": "label"})
    assert ds.A[:, 0].tolist() == [0, 0, 1, 1]


def test_design_matrix_intercept_last(tmp_path):
    ds = load_dataset(_write(tmp_path, CSV), SPEC)
    Z = ds.design_matrix()
    assert np.all(Z[:, -1] == 1.0)
    assert ds.design_names()[-1] == "intercept"


def test_design_matrix_without_sensitive(tmp_path):
    ds = load_dataset(_write(tmp_path, CSV), SPEC)
    Z = ds.design_matrix(include_sensitive=False)
    assert Z.shape[1] == ds.X.shape[1] + 1


@pytest.mark.parametrize("indices", [None, "array", "list", "empty"])
@pytest.mark.parametrize("include_sensitive", [True, False])
@pytest.mark.parametrize("levels,d", [((2,), 3), ((2, 5, 1, 3), 4), ((3,), 0)])
def test_design_matrix_matches_the_hstack_oracle(levels, d, include_sensitive,
                                                 indices):
    rng = np.random.default_rng(len(levels) + d)
    n = 300
    A = np.column_stack([rng.integers(0, k, n) for k in levels])
    ds = Dataset(A, rng.normal(size=(n, d)), rng.integers(0, 2, n),
                 [f"x{i}" for i in range(d)], [f"s{j}" for j in range(len(levels))],
                 [[str(v) for v in range(k)] for k in levels])
    picked = rng.permutation(n)[:120]
    idx = {None: None, "array": picked, "list": picked.tolist(),
           "empty": []}[indices]
    got = ds.design_matrix(idx, include_sensitive=include_sensitive)
    want = design_matrix_hstack(ds, idx, include_sensitive=include_sensitive)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.shape == want.shape
    assert got.shape[1] == len(ds.design_names(include_sensitive))
    assert got.tobytes() == want.tobytes()


def test_design_matrix_matches_the_hstack_oracle_on_the_census(census):
    for include_sensitive in (True, False):
        assert (census.design_matrix(include_sensitive=include_sensitive).tobytes()
                == design_matrix_hstack(census, None, include_sensitive).tobytes())


def test_dataset_rejects_non_binary_labels():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.zeros((3, 1)), np.array([0, 1, 2]),
                ["x"], ["g"], [["a"]])


def test_resample_hits_requested_rate(census):
    key = census.group_keys[0]
    out = resample_positive_rate(census, {key: 0.5}, seed=0)
    assert abs(positive_rate(out, key) - 0.5) < 0.02
    # untouched groups pass through in full
    for other in census.group_keys[1:]:
        assert len(out.groups[other]) == len(census.groups[other])


def test_resample_keeps_binding_side(census):
    key = census.group_keys[0]
    n_pos = int(census.y[census.groups[key]].sum())
    out = resample_positive_rate(census, {key: 0.5}, seed=0)
    # raising the rate above the natural one keeps every positive
    assert int(out.y[out.groups[key]].sum()) == n_pos


def test_resample_extreme_rates(census):
    key = census.group_keys[0]
    zero = resample_positive_rate(census, {key: 0.0}, seed=0)
    assert positive_rate(zero, key) == 0.0
    one = resample_positive_rate(census, {key: 1.0}, seed=0)
    assert positive_rate(one, key) == 1.0


def test_resample_infeasible_rate():
    ds = Dataset(np.zeros((4, 1), dtype=int), np.zeros((4, 1)),
                 np.array([0, 0, 0, 0]), ["x"], ["g"], [["a"]])
    with pytest.raises(InfeasibleRateError):
        resample_positive_rate(ds, {(0,): 0.5}, seed=0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        UnfairnessSchedule([])
    with pytest.raises(ValueError):
        UnfairnessSchedule([({(0,): 1.5}, 10)])
    with pytest.raises(ValueError):
        UnfairnessSchedule([({}, 0)])
    sched = UnfairnessSchedule([({}, 10), ({}, 20)])
    assert sched.total_updates == 30


def test_split_is_a_partition(census):
    train, test = train_test_split(census, test_frac=0.3, seed=0)
    assert train.n + test.n == census.n
    assert abs(test.n / census.n - 0.3) < 0.02


def test_split_stratifies_group_rates(census):
    train, test = train_test_split(census, test_frac=0.3, seed=0)
    for key in census.group_keys:
        assert abs(positive_rate(train, key) - positive_rate(test, key)) < 0.05


def test_split_deterministic(census):
    a, _ = train_test_split(census, 0.3, seed=1)
    b, _ = train_test_split(census, 0.3, seed=1)
    assert np.array_equal(a.X, b.X)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=999),
       st.floats(min_value=0.1, max_value=0.9))
def test_resample_rate_property(n_pos, seed, rate):
    n = 2 * n_pos + 10
    y = np.zeros(n, dtype=int)
    y[:n_pos] = 1
    ds = Dataset(np.zeros((n, 1), dtype=int), np.zeros((n, 1)), y,
                 ["x"], ["g"], [["a"]])
    out = resample_positive_rate(ds, {(0,): rate}, seed=seed)
    got = positive_rate(out, (0,))
    # achieved rate is exact up to integer rounding of the downsampled side
    assert abs(got - rate) <= 1.0 / max(out.n, 1) + 0.5 / n_pos


NUMBERS = ["0", "1", "2.5", "-3", "1e3", " 7 ", "1_0", "0.1"]
LEVELS = ["a", "b", "B", " c", "a\x00", "\u00e9"]
BAD_CELLS = ["", "?", "nan", "inf", "-Infinity", "1e999", "x"]
LOADER_SCHEMAS = [
    {"n": "feature:numeric", "c": "feature:categorical", "a": "feature",
     "m": "sensitive:median", "s": "sensitive", "y": "label"},
    {"a": "feature", "s": "sensitive", "y": "label"},
    {"c": "feature:auto", "n": "sensitive:median", "s": "sensitive:codes",
     "y": "label"},
    {"m": "sensitive:median", "y": "label"},
]


@st.composite
def small_files(draw):
    """(text, schema) of a small delimited file. Columns n and m hold
    numbers, c, s and z levels, a either, y a label; a dirty file mixes in
    missing, non-finite and unparsable cells, and some rows are ragged."""
    pools = {"n": NUMBERS, "m": NUMBERS, "c": LEVELS, "s": LEVELS, "z": LEVELS,
             "a": draw(st.sampled_from([NUMBERS, LEVELS])),
             "y": draw(st.sampled_from([["0", "1"], ["1"], ["no", "yes"], LEVELS]))}
    header = draw(st.permutations(sorted(pools)))
    bad = draw(st.sampled_from([[], BAD_CELLS]))
    rows = [list(header)]
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(st.sampled_from(pools[h] + bad)) for h in header]
        ragged = draw(st.sampled_from([0] * 18 + [-1, 1]))
        rows.append(row[:-1] if ragged < 0 else row + ["z"] * ragged)
    delimiter = draw(st.sampled_from([",", " "]))
    text = "\n".join(delimiter.join(r) for r in rows) + "\n"
    return text, draw(st.sampled_from(LOADER_SCHEMAS))


def _loaded(load, path, schema):
    """Everything load(path, schema) yields, or the type and message of
    what it raised."""
    try:
        ds = load(path, schema)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return (ds.A.tobytes(), ds.A.shape, ds.X.tobytes(), ds.X.shape,
            ds.y.tobytes(), ds.feature_names, ds.sensitive_names,
            [[(type(lv), lv) for lv in levels] for levels in ds.sensitive_levels],
            [(key, [type(c) for c in key], idx.dtype, idx.tolist())
             for key, idx in ds.groups.items()])


@settings(deadline=None, max_examples=300)
@given(small_files())
def test_load_matches_the_rowwise_loader(tmp_path_factory, file):
    text, schema = file
    path = tmp_path_factory.getbasetemp() / "loader-oracle.csv"
    path.write_text(text)
    assert (_loaded(load_dataset, str(path), schema)
            == _loaded(load_dataset_rowwise, str(path), schema))


def test_load_matches_the_rowwise_loader_on_the_census(census_path):
    assert (_loaded(load_dataset, census_path, synthetic.SCHEMA)
            == _loaded(load_dataset_rowwise, census_path, synthetic.SCHEMA))


@pytest.mark.parametrize("seed,digest", [
    (0, "aa3a5e2bef48136bd9052b7451db45e96ae4dfb98e4e5798d9bb507a9c3622a5"),
    (1, "7ab66bf83e881c706822c99cd8b968c6c1de58f7431a1409827df3cf7b0072ca"),
])
def test_synthetic_file_bytes_are_pinned(tmp_path, seed, digest):
    # Every experiment's data depends on these bytes.
    path = tmp_path / "census.csv"
    synthetic.write_csv(path, 1000, seed=seed)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


BLOCK_SIZES = [1, 2, 3]  # rows per block, so later rows fall in later blocks


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
@settings(deadline=None, max_examples=200)
@given(small_files())
def test_load_matches_the_rowwise_loader_across_blocks(tmp_path_factory,
                                                        block_rows, file):
    text, schema = file
    path = tmp_path_factory.getbasetemp() / f"loader-oracle-{block_rows}.csv"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "BLOCK_ROWS", block_rows)
        assert (_loaded(load_dataset, str(path), schema)
                == _loaded(load_dataset_rowwise, str(path), schema))


# str.splitlines cuts at each of these; io.StringIO and csv only at '\n'
# (csv also ends a record at '\r').
LINE_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029"]


@settings(deadline=None, max_examples=200)
@given(small_files(), st.lists(st.sampled_from(LINE_ENDS), min_size=8, max_size=8),
       st.sampled_from(BLOCK_SIZES))
def test_load_cuts_lines_as_the_rowwise_loader(tmp_path_factory, file, ends,
                                               block_rows):
    text, schema = file
    lines = text.split("\n")
    text = "".join(line + ends[k % len(ends)] for k, line in enumerate(lines))
    path = tmp_path_factory.getbasetemp() / "line-ends.csv"
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "BLOCK_ROWS", block_rows)
        assert (_loaded(load_dataset, str(path), schema)
                == _loaded(load_dataset_rowwise, str(path), schema))


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
def test_load_matches_the_rowwise_loader_on_the_census_across_blocks(
        census_path, monkeypatch, block_rows):
    monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
    assert (_loaded(load_dataset, census_path, synthetic.SCHEMA)
            == _loaded(load_dataset_rowwise, census_path, synthetic.SCHEMA))


NUMERIC = {"n": "feature:numeric", "s": "sensitive", "y": "label"}
READER_ERROR = ("new-line character seen in unquoted field - do you need to open"
                " the file in universal-newline mode?")
LATE_BLOCK_FILES = {
    # A cell-count error in a later block outranks an earlier bad cell.
    "ragged-after-a-bad-cell": (
        "n,s,y\nx,a,0\n1,b,1\n2,a\n", NUMERIC, "row 2: expected 3 cells, got 2"),
    # Dropped rows in earlier blocks still count in a later bad cell's row.
    "bad-cell-after-dropped-rows": (
        "n,s,y\n?,a,0\n1,,1\n2,a,1\n1e999,b,0\n", NUMERIC,
        "row 3: non-finite value '1e999' in column 'n'"),
    # An 'auto' column is categorical, with its original strings, when any
    # block holds a non-number; the earlier nan is then a level.
    "late-non-number-in-an-auto-column": (
        "n,s,y\nnan,a,0\n1_0,b,1\n 7 ,a,1\nx,b,0\n",
        {"n": "feature", "s": "sensitive", "y": "label"}, ["n=7", "n=nan", "n=x"]),
    # The reader's own error, wherever it is, outranks the loader's errors.
    "reader-error-after-a-ragged-row": (
        "n,s,y\n1,a\n2,b,1\n3\ry,a,1\n", NUMERIC, READER_ERROR),
    "reader-error-after-a-missing-column": (
        "q,s,y\n1,a,0\n2,b,1\n3\ry,a,1\n", NUMERIC, READER_ERROR),
}


@pytest.mark.parametrize("block_rows", BLOCK_SIZES)
@pytest.mark.parametrize("case", LATE_BLOCK_FILES)
def test_load_meets_late_rows_in_later_blocks_as_the_rowwise_loader(
        tmp_path, monkeypatch, case, block_rows):
    text, schema, expected = LATE_BLOCK_FILES[case]
    path = tmp_path / "late.csv"
    path.write_bytes(text.encode())  # keeps a bare '\r' as it is
    monkeypatch.setattr(data, "BLOCK_ROWS", block_rows)
    got = _loaded(load_dataset, str(path), schema)
    assert got == _loaded(load_dataset_rowwise, str(path), schema)
    assert (got[1] if isinstance(got[0], type) else got[5]) == expected


@pytest.mark.parametrize("n,seed,digest", [
    (0, 0, "a73bbf6d2c8a14ab1dd39b88bbff7d5733771942349cbac89a2ed84b15f7628f"),
    (1, 1, "05ee43097c36b6fe9702e3848c626a5e40d2b812c0aaa9f90e1dc18d9718e065"),
    (1024, 1, "ce0c0c1f39fc0dffbd76b4f101c7575e2570a11ab2b8968826882226fb15a417"),
    (1025, 2, "b36f73ca447204855b1f071e185b88d14e74aea321793035b70747c223c129f0"),
    (20_003, 2, "6ed034f59914ce11e0f986a97cea6747aabb5af6ae9d1998152cfd413550e698"),
    (100_000, 1, "12f9257ff23bb055db3c1dd5f81b2da44f5b6a5ee501c501fc69dcd4e15d5ad2"),
])
def test_synthetic_file_bytes_are_pinned_across_blocks(tmp_path, n, seed, digest):
    # The header alone, one row, one full block, one row past it, and many
    # blocks with the last one partial.
    path = tmp_path / "census.csv"
    synthetic.write_csv(path, n, seed=seed)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_census_write_and_load_each_stay_under_25_mb(tmp_path):
    # Python objects per cell of the whole file cost 70-80 MB at 100k rows;
    # by blocks of rows, writing or loading it peaks below 25 MB.
    path = tmp_path / "census.csv"
    tracemalloc.start()
    try:
        synthetic.write_csv(path, 100_000, seed=1)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ds = load_dataset(path, synthetic.SCHEMA)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == 100_000
    assert write_peak < 25e6, write_peak
    assert load_peak < 25e6, load_peak


def test_load_streams_the_file_past_a_wide_ignored_column(tmp_path):
    # The file's whole text never exists at once: 20 000 rows with a
    # 500-character column the schema ignores load below half the file's size.
    path = tmp_path / "wide.csv"
    with open(path, "w") as fh:
        fh.write("x,note,s,y\n")
        fh.writelines(f"{k % 97},{'n' * 500},{'ab'[k % 2]},{k % 3 % 2}\n"
                      for k in range(20_000))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        ds = load_dataset(path, {"x": "feature", "s": "sensitive", "y": "label"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == 20_000
    assert peak < size / 2, (peak, size)


@pytest.mark.parametrize("frac", [-0.1, 0.0, 1.0, 1.5])
def test_split_rejects_test_frac_outside_the_open_unit_interval(census, frac):
    with pytest.raises(ValueError, match=rf"^test_frac must be in \(0, 1\), got {frac}$"):
        train_test_split(census, frac, seed=0)
