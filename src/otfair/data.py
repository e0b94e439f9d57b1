"""Tabular dataset ingestion, sensitive-attribute groups, and scheduled resampling."""
from __future__ import annotations

import csv
import math
import sys
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain, islice

import numpy as np

GroupKey = tuple  # tuple of int codes, one per sensitive column

# Data rows parsed at a time: only one block's cells exist as Python strings.
BLOCK_ROWS = 1024
# role -> the encodings a column of that role may have ('auto' is the default)
ENCODINGS = {"feature": ("auto", "numeric", "categorical"),
             "sensitive": ("auto", "codes", "median"), "label": ("auto",)}


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
              'median' (numeric thresholded at the median);
              'auto' for any role (ENCODINGS).
    """

    name: str
    role: str
    encoding: str = "auto"

    def __post_init__(self):
        if self.role not in ENCODINGS:
            raise SchemaError(f"unknown role {self.role!r} for column {self.name!r}")
        if self.encoding not in ENCODINGS[self.role]:
            raise SchemaError(
                f"unknown {self.role} encoding {self.encoding!r} for column "
                f"{self.name!r}; expected one of {', '.join(ENCODINGS[self.role])}")


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

    def design_matrix(self, indices=None, include_sensitive=True):
        """Model input rows [encoded sensitive, features, 1].

        Each sensitive column is one-hot encoded over its levels with the
        first level dropped, so a binary attribute contributes one 0/1 column.
        """
        sel = slice(None) if indices is None else np.asarray(indices, dtype=int)
        X = self.X[sel]
        n_levels = ([len(levels) - 1 for levels in self.sensitive_levels]
                    if include_sensitive else [])
        k = sum(n_levels)
        Z = np.empty((X.shape[0], k + X.shape[1] + 1))
        c = 0
        for j, n_lv in enumerate(n_levels):
            codes = self.A[sel, j]
            for lv in range(1, n_lv + 1):
                Z[:, c] = codes == lv
                c += 1
        Z[:, k:-1] = X
        Z[:, -1] = 1.0
        return Z

    def design_names(self, include_sensitive=True):
        names = []
        if include_sensitive:
            for name, levels in zip(self.sensitive_names, self.sensitive_levels):
                names.extend(f"{name}={lv}" for lv in levels[1:])
        names.extend(self.feature_names)
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
    """Row indices per distinct row of A, keyed in first-row order: sums
    over groups (evaluate, sdd) run in dict order."""
    if not len(A):
        return {}
    order = np.lexsort(A.T)  # stable: each group's rows stay ascending
    rows = A[order]
    starts = np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1
    members = sorted(np.split(order, starts), key=lambda m: m[0])
    return {tuple(A[m[0]].tolist()): m for m in members}


def _numeric_column(vals, name, kept, auto=False):
    """Parse one numeric column of the kept rows, each cell once.

    With auto, a cell that does not parse returns None: the column is
    categorical. Otherwise such a cell, or one that parses to nan or an
    infinity, raises RowError naming its data row and the column; kept[k]
    is the data row of the k-th kept row.
    """
    try:
        col = np.fromiter(map(float, vals), float, len(vals))
        if np.isfinite(col).all():
            return col
    except ValueError:
        if auto:
            return None
    for k, raw in enumerate(vals):  # only on bad input: find the first bad cell
        try:
            if math.isfinite(float(raw)):
                continue
            problem = f"non-finite value {raw!r}"
        except ValueError:
            problem = f"cannot parse {raw!r}"
        raise RowError(int(kept[k]), f"{problem} in column {name!r}")


def _levels(vals):
    """(sorted levels, code of each cell) of a categorical column."""
    levels = sorted(set(vals))
    lut = {lv: c for c, lv in enumerate(levels)}
    return levels, np.fromiter(map(lut.__getitem__, vals), int, len(vals))


def _rows(path, delimiter):
    """The cells of each non-blank line of the file at path, streamed. Lines
    are cut as in the whole text by csv.reader, or for whitespace by splitlines()."""
    with open(path, newline="\n") as fh:  # '\n' ends a line and stays in it
        if not (line := next(filter(str.strip, fh), "")):
            raise ValueError(f"empty input file: {path}")
        if delimiter is None:  # None -> whitespace split
            delimiter = "," if "," in next(filter(str.strip, line.splitlines())) else None
        fh.seek(0)  # then splitlines() per line: no '\r\n' straddles two '\n' lines
        rows = (map(str.split, chain.from_iterable(map(str.splitlines, fh)))
                if delimiter is None else csv.reader(fh, delimiter=delimiter))
        yield from (r for r in rows if any(map(str.strip, r)))


def load_dataset(path, schema, delimiter=None):
    """Load a delimited text file with a header row into a Dataset.

    Numeric features are standardized to zero mean / unit variance on the
    loaded split; categorical features are one-hot encoded (then left as 0/1
    columns). Rows with missing cells ('' or '?') are dropped. The text is
    streamed (_rows) and parsed BLOCK_ROWS rows at a time.
    """
    if isinstance(schema, dict):
        schema = Schema.from_dict(schema)
    rows = _rows(path, delimiter)
    header = [h.strip() for h in next(rows, [])]
    for spec in schema.columns:
        if spec.name not in header:
            deque(rows, maxlen=0)  # the reader's own errors outrank this one
            raise SchemaError(f"column {spec.name!r} missing from header {header}")
    index = {spec: header.index(spec.name) for spec in schema.columns}
    # numeric[spec]: whether it is 'auto'. Per block its cells become a float array.
    numeric = {s: s.encoding == "auto" for s in schema.columns if (s.role, s.encoding)
               in {("feature", "auto"), ("feature", "numeric"), ("sensitive", "median")}}
    cells = {spec: [] for spec in schema.columns}
    errors = {}  # first RowError per numeric column, raised in load order below
    start = 0
    while block := list(islice(rows, BLOCK_ROWS)):
        for k, raw in enumerate(block):
            if len(raw) != len(header):  # outranks every bad cell
                deque(rows, maxlen=0)
                raise RowError(start + k, f"expected {len(header)} cells, got {len(raw)}")
        block_cells = {spec: [raw[j].strip() for raw in block]
                       for spec, j in index.items()}
        # Row-drop is the only missing-value handling.
        keep = np.ones(len(block), dtype=bool)
        for vals in block_cells.values():
            if "" in vals or "?" in vals:
                keep[[k for k, v in enumerate(vals) if v in ("", "?")]] = False
        kept = np.flatnonzero(keep)
        for spec, vals in block_cells.items():
            if kept.size < keep.size:
                vals = [vals[k] for k in kept.tolist()]
            if spec not in numeric:
                cells[spec].extend(map(sys.intern, vals))
                continue
            try:
                col = _numeric_column(vals, spec.name, kept + start, numeric[spec])
            except RowError as err:
                errors.setdefault(spec, err)
                continue
            if col is None:  # rare: an 'auto' column holds a non-number
                return load_dataset(path, Schema([
                    replace(s, encoding="categorical") if s == spec else s
                    for s in schema.columns]), delimiter)
            cells[spec].append(col)
        start += len(block)
    if not cells[schema.label_column]:
        raise ValueError(f"no usable data rows in {path}")
    for spec in schema.feature_columns + schema.sensitive_columns:
        if spec in errors:
            raise errors[spec]

    feature_blocks, feature_names = [], []
    for spec in schema.feature_columns:
        if spec in numeric:
            feature_blocks.append(_standardize(np.concatenate(cells[spec]))[:, None])
            feature_names.append(spec.name)
        else:  # categorical
            levels, codes = _levels(cells[spec])
            feature_blocks.append(
                (codes[:, None] == np.arange(1, len(levels))).astype(float))
            feature_names.extend(f"{spec.name}={lv}" for lv in levels[1:])

    sensitive_codes, sensitive_levels, sensitive_names = [], [], []
    for spec in schema.sensitive_columns:
        if spec in numeric:
            col = np.concatenate(cells[spec])
            med = float(np.median(col))
            codes = (col >= med).astype(int)
            levels = [f"<{med:g}", f">={med:g}"]
        else:
            levels, codes = _levels(cells[spec])
        sensitive_codes.append(codes)
        sensitive_levels.append(levels)
        sensitive_names.append(spec.name)

    label_levels, y = _levels(cells[schema.label_column])
    if len(label_levels) > 2:
        raise SchemaError(
            f"label column {schema.label_column.name!r} has {len(label_levels)} levels")
    if set(label_levels) <= {"0", "1"}:
        y = np.array([int(lv) for lv in label_levels])[y]

    A = np.column_stack(sensitive_codes)
    X = np.hstack(feature_blocks) if feature_blocks else np.empty((y.size, 0))
    del cells, feature_blocks  # before the Dataset's checks and groups
    return Dataset(A, X, y, feature_names, sensitive_names, sensitive_levels)


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
    if not 0.0 < test_frac < 1.0:
        raise ValueError(f"test_frac must be in (0, 1), got {test_frac}")
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
