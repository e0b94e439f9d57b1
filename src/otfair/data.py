"""Tabular dataset ingestion, sensitive-attribute groups, and scheduled resampling."""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

GroupKey = tuple  # tuple of int codes, one per sensitive column


class SchemaError(ValueError):
    """Schema does not match the file or is internally inconsistent."""


class RowError(ValueError):
    """A data row could not be parsed.

    row_index counts the data rows below the header from 0, dropped rows
    included, so it names the same row whichever check finds it.
    """

    def __init__(self, row_index, message):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


class InfeasibleRateError(ValueError):
    """Requested positive rate cannot be met for a group."""


@dataclass(frozen=True)
class ColumnSpec:
    """One column of the input file.

    role: 'feature', 'sensitive' or 'label'.
    encoding: for features, 'numeric' or 'categorical';
              for sensitive columns, 'codes' (categorical levels) or
              'median' (numeric thresholded at the median).
    """

    name: str
    role: str
    encoding: str = "auto"

    def __post_init__(self):
        if self.role not in ("feature", "sensitive", "label"):
            raise SchemaError(f"unknown role {self.role!r} for column {self.name!r}")


@dataclass
class Schema:
    columns: list

    def __post_init__(self):
        roles = [c.role for c in self.columns]
        if roles.count("label") != 1:
            raise SchemaError("schema must declare exactly one label column")
        if "sensitive" not in roles:
            raise SchemaError("schema must declare at least one sensitive column")

    @classmethod
    def from_dict(cls, spec):
        """Build from {column_name: "role" | "role:encoding"}."""
        cols = []
        for name, val in spec.items():
            role, _, enc = str(val).partition(":")
            cols.append(ColumnSpec(name, role.strip(), enc.strip() or "auto"))
        return cls(cols)

    @property
    def feature_columns(self):
        return [c for c in self.columns if c.role == "feature"]

    @property
    def sensitive_columns(self):
        return [c for c in self.columns if c.role == "sensitive"]

    @property
    def label_column(self):
        return next(c for c in self.columns if c.role == "label")


@dataclass
class Dataset:
    """In-memory dataset with a group partition over sensitive-value combinations.

    A holds integer codes (n, k); X holds standardized/encoded features (n, d);
    y is the binary label. `groups` maps each realized GroupKey to the array of
    row indices belonging to it (a partition of range(n)).
    """

    A: np.ndarray
    X: np.ndarray
    y: np.ndarray
    feature_names: list
    sensitive_names: list
    sensitive_levels: list  # per sensitive column, ordered list of original labels
    groups: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=int)
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if not np.isfinite(self.X).all():
            raise ValueError("features contain non-finite values")
        if not np.isin(self.y, (0, 1)).all():
            raise ValueError("labels must be binary")
        if not self.groups:
            self.groups = _build_groups(self.A)

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def group_keys(self):
        return sorted(self.groups)

    def subset(self, indices):
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            self.A[idx], self.X[idx], self.y[idx],
            self.feature_names, self.sensitive_names, self.sensitive_levels,
        )

    def positive_rate(self, key):
        return float(self.y[self.groups[key]].mean())

    def design_matrix(self, indices=None, include_sensitive=True, intercept=True):
        """Model input rows [encoded sensitive, features, 1].

        Each sensitive column is one-hot encoded over its levels with the
        first level dropped, so a binary attribute contributes one 0/1 column.
        """
        idx = np.arange(self.n) if indices is None else np.asarray(indices, dtype=int)
        blocks = []
        if include_sensitive:
            for j, levels in enumerate(self.sensitive_levels):
                codes = self.A[idx, j]
                for lv in range(1, len(levels)):
                    blocks.append((codes == lv).astype(float)[:, None])
        blocks.append(self.X[idx])
        if intercept:
            blocks.append(np.ones((len(idx), 1)))
        return np.hstack(blocks)

    def design_names(self, include_sensitive=True, intercept=True):
        names = []
        if include_sensitive:
            for name, levels in zip(self.sensitive_names, self.sensitive_levels):
                names.extend(f"{name}={lv}" for lv in levels[1:])
        names.extend(self.feature_names)
        if intercept:
            names.append("intercept")
        return names


@dataclass
class UnfairnessSchedule:
    """Ordered phases of (per-group target positive rates, update count)."""

    phases: list  # list of (dict GroupKey -> rate, int duration)

    def __post_init__(self):
        if not self.phases:
            raise ValueError("schedule must contain at least one phase")
        for rates, duration in self.phases:
            if int(duration) < 1:
                raise ValueError("phase duration must be >= 1")
            for key, r in rates.items():
                if not 0.0 <= r <= 1.0:
                    raise ValueError(f"rate {r} for group {key} outside [0, 1]")

    @property
    def total_updates(self):
        return sum(int(d) for _, d in self.phases)


def _build_groups(A):
    groups = {}
    for i, row in enumerate(map(tuple, A.tolist())):
        groups.setdefault(row, []).append(i)
    return {k: np.asarray(v, dtype=int) for k, v in groups.items()}


def _numeric_column(vals, name, dropped):
    """Parse one numeric column of the kept rows.

    A cell that does not parse, or parses to nan or an infinity, raises
    RowError naming its data row and the column; dropped lists the indices
    of the dropped data rows in ascending order, which maps a kept row back
    to its data row.
    """
    try:
        col = np.array([float(v) for v in vals])
        if np.isfinite(col).all():
            return col
    except ValueError:
        pass
    for k, raw in enumerate(vals):  # only on bad input: find the first bad cell
        try:
            if math.isfinite(float(raw)):
                continue
            problem = f"non-finite value {raw!r}"
        except ValueError:
            problem = f"cannot parse {raw!r}"
        row = k
        for d in dropped:  # each dropped row at or before it shifts it by one
            if d > row:
                break
            row += 1
        raise RowError(row, f"{problem} in column {name!r}")


def load_dataset(path, schema, delimiter=None):
    """Load a delimited text file with a header row into a Dataset.

    Numeric features are standardized to zero mean / unit variance on the
    loaded split; categorical features are one-hot encoded (then left as 0/1
    columns). Rows with missing cells ('' or '?') are dropped.
    """
    if isinstance(schema, dict):
        schema = Schema.from_dict(schema)
    with open(path, newline="") as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError(f"empty input file: {path}")
    if delimiter is None:
        first = text.splitlines()[0]
        delimiter = "," if "," in first else None  # None -> whitespace split
    if delimiter is None:
        rows = [line.split() for line in text.splitlines() if line.strip()]
    else:
        rows = [r for r in csv.reader(io.StringIO(text), delimiter=delimiter) if r]
    header = [h.strip() for h in rows[0]]
    col_index = {}
    for spec in schema.columns:
        if spec.name not in header:
            raise SchemaError(f"column {spec.name!r} missing from header {header}")
        col_index[spec.name] = header.index(spec.name)

    body, dropped = [], []
    for i, raw in enumerate(rows[1:]):
        cells = [c.strip() for c in raw]
        if len(cells) != len(header):
            raise RowError(i, f"expected {len(header)} cells, got {len(cells)}")
        if any(cells[col_index[s.name]] in ("", "?") for s in schema.columns):
            dropped.append(i)  # row-drop is the only missing-value handling
            continue
        body.append(cells)
    if not body:
        raise ValueError(f"no usable data rows in {path}")

    def column(name):
        j = col_index[name]
        return [r[j] for r in body]

    # Decide encodings for 'auto' feature columns.
    feature_blocks, feature_names = [], []
    for spec in schema.feature_columns:
        vals = column(spec.name)
        enc = spec.encoding
        if enc == "auto":
            enc = "numeric" if _all_numeric(vals) else "categorical"
        if enc == "numeric":
            col = _numeric_column(vals, spec.name, dropped)
            feature_blocks.append(_standardize(col)[:, None])
            feature_names.append(spec.name)
        elif enc == "categorical":
            levels = sorted(set(vals))
            for lv in levels[1:]:
                feature_blocks.append(
                    np.array([1.0 if v == lv else 0.0 for v in vals])[:, None])
                feature_names.append(f"{spec.name}={lv}")
        else:
            raise SchemaError(f"unknown feature encoding {enc!r} for {spec.name!r}")

    sensitive_codes, sensitive_levels, sensitive_names = [], [], []
    for spec in schema.sensitive_columns:
        vals = column(spec.name)
        if spec.encoding == "median":
            col = _numeric_column(vals, spec.name, dropped)
            med = float(np.median(col))
            codes = (col >= med).astype(int)
            levels = [f"<{med:g}", f">={med:g}"]
        else:
            levels = sorted(set(vals))
            lut = {lv: c for c, lv in enumerate(levels)}
            codes = np.array([lut[v] for v in vals], dtype=int)
        sensitive_codes.append(codes)
        sensitive_levels.append(levels)
        sensitive_names.append(spec.name)

    label_vals = column(schema.label_column.name)
    label_levels = sorted(set(label_vals))
    if len(label_levels) > 2:
        raise SchemaError(
            f"label column {schema.label_column.name!r} has {len(label_levels)} levels")
    if set(label_levels) <= {"0", "1"}:
        y = np.array([int(v) for v in label_vals])
    else:
        y = np.array([label_levels.index(v) for v in label_vals])

    A = np.column_stack(sensitive_codes)
    X = np.hstack(feature_blocks) if feature_blocks else np.empty((len(body), 0))
    return Dataset(A, X, y, feature_names, sensitive_names, sensitive_levels)


def _all_numeric(vals):
    try:
        for v in vals:
            float(v)
    except ValueError:
        return False
    return True


def _standardize(col):
    mu = col.mean()
    sd = col.std()
    return (col - mu) / (sd if sd > 0 else 1.0)


def resample_positive_rate(d, rates, seed):
    """Subsample d so each group in `rates` hits the requested positive fraction.

    The binding side (positives or negatives) is kept in full and the other
    side is downsampled without replacement, maximizing retained data. Groups
    without a requested rate pass through unchanged.
    """
    rng = np.random.default_rng(seed)
    keep = []
    for key in d.group_keys:
        idx = d.groups[key]
        if key not in rates:
            keep.append(idx)
            continue
        r = float(rates[key])
        pos = idx[d.y[idx] == 1]
        neg = idx[d.y[idx] == 0]
        if r > 0 and len(pos) == 0:
            raise InfeasibleRateError(f"group {key}: rate {r} but no positives")
        if r < 1 and len(neg) == 0:
            raise InfeasibleRateError(f"group {key}: rate {r} but no negatives")
        if r == 0.0:
            keep.append(neg)
            continue
        if r == 1.0:
            keep.append(pos)
            continue
        # Keep all positives if enough negatives exist for the target rate,
        # else keep all negatives and downsample positives.
        n_neg_wanted = int(round(len(pos) * (1 - r) / r))
        if n_neg_wanted <= len(neg):
            sub_neg = rng.choice(neg, size=n_neg_wanted, replace=False)
            keep.extend([pos, np.sort(sub_neg)])
        else:
            n_pos_wanted = int(round(len(neg) * r / (1 - r)))
            if n_pos_wanted < 1:
                raise InfeasibleRateError(
                    f"group {key}: rate {r} infeasible with "
                    f"{len(pos)} positives / {len(neg)} negatives")
            sub_pos = rng.choice(pos, size=min(n_pos_wanted, len(pos)), replace=False)
            keep.extend([np.sort(sub_pos), neg])
    indices = np.sort(np.concatenate(keep))
    return d.subset(indices)


def train_test_split(d, test_frac=0.3, seed=0):
    """Split stratified by (group, label); returns (train, test) Datasets."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for key in d.group_keys:
        for label in (0, 1):
            idx = d.groups[key][d.y[d.groups[key]] == label]
            idx = rng.permutation(idx)
            n_test = int(round(test_frac * len(idx)))
            test_idx.append(idx[:n_test])
            train_idx.append(idx[n_test:])
    return (d.subset(np.sort(np.concatenate(train_idx))),
            d.subset(np.sort(np.concatenate(test_idx))))
