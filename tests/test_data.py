"""Dataset ingestion, grouping, resampling, and splitting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfair.data import (Dataset, InfeasibleRateError, RowError, Schema,
                         SchemaError, UnfairnessSchedule, load_dataset,
                         resample_positive_rate, train_test_split)

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


def test_dataset_rejects_non_binary_labels():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.zeros((3, 1)), np.array([0, 1, 2]),
                ["x"], ["g"], [["a"]])


def test_resample_hits_requested_rate(census):
    key = census.group_keys[0]
    out = resample_positive_rate(census, {key: 0.5}, seed=0)
    assert abs(out.positive_rate(key) - 0.5) < 0.02
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
    assert zero.positive_rate(key) == 0.0
    one = resample_positive_rate(census, {key: 1.0}, seed=0)
    assert one.positive_rate(key) == 1.0


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
        assert abs(train.positive_rate(key) - test.positive_rate(key)) < 0.05


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
    got = out.positive_rate((0,))
    # achieved rate is exact up to integer rounding of the downsampled side
    assert abs(got - rate) <= 1.0 / max(out.n, 1) + 0.5 / n_pos
