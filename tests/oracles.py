"""Independent oracles shared by the test modules."""
import csv
import io
import math

import numpy as np
from scipy.optimize import minimize

from otfair.cot import (DivergenceError, DualPair, _as_batches, _ascend,
                        _features, _objective, _potentials, _theta_term, alpha)
from otfair.data import Dataset, RowError, Schema, SchemaError
from otfair.model import (LR_MAX_ITERS, LR_TOL, LogisticModel, _nll, _nll_grad,
                          score_batch, sigmoid)
from otfair.rff import _grad_rows, make_rff


def survival_gap_integral(a, b):
    """Integral over tau in [0,1] of |P(A > tau) - P(B > tau)|, exact.

    An independent route to W1(A, B) for empirical distributions on [0, 1]:
    it integrates the survival functions over the sample points, where the
    library merges the two samples in rank order.
    """
    def survival(d, v):  # P(D > v): the share of samples above v
        return 1.0 - np.searchsorted(d.samples, v, side="right") / d.samples.size

    pts = np.unique(np.concatenate([[0.0], a.samples, b.samples, [1.0]]))
    widths = np.diff(pts)
    mids = (pts[:-1] + pts[1:]) / 2.0
    # Survival at the midpoint equals survival on the whole open interval.
    surv_a = survival(a, mids)
    surv_b = survival(b, mids)
    return float(np.sum(widths * np.abs(surv_a - surv_b)))


def loop_coupling_1d(xs, ys):
    """Monotone coupling of two uniform empirical batches, one merge step at
    a time: returns (rows, cols, mass) in merge order.

    An independent route to the library's rank-grid kernel: both sweep the
    sorted batches (stable sorts) and split mass in integer units of
    1/(n*m), but this one takes, at each step, the smaller of the units left
    on the current x atom and on the current y atom.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    n, m = xs.size, ys.size
    xi = np.argsort(xs, kind="stable")
    yj = np.argsort(ys, kind="stable")
    rows, cols, units = [], [], []
    i = j = 0
    rem_x, rem_y = m, n  # units left on the current x / y atom
    while i < n and j < m:
        take = min(rem_x, rem_y)
        rows.append(xi[i])
        cols.append(yj[j])
        units.append(take)
        rem_x -= take
        rem_y -= take
        if rem_x == 0:
            i += 1
            rem_x = m
        if rem_y == 0:
            j += 1
            rem_y = n
    return (np.array(rows), np.array(cols),
            np.array(units, dtype=float) / (n * m))


def load_dataset_rowwise(path, schema, delimiter=None):
    """otfair.data.load_dataset as it read files before the column-wise
    rewrite: strip and check every row, parse 'auto' columns twice, one-hot
    encode level by level and build the groups row by row.

    The reference the column-wise loader must match: equal Dataset fields
    and group order, or the same exception type and message.
    """
    if isinstance(schema, dict):
        schema = Schema.from_dict(schema)
    with open(path, newline="") as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError(f"empty input file: {path}")
    if delimiter is None:
        first = next(line for line in text.splitlines() if line.strip())
        delimiter = "," if "," in first else None  # None -> whitespace split
    if delimiter is None:
        rows = [line.split() for line in text.splitlines() if line.strip()]
    else:
        rows = [r for r in csv.reader(io.StringIO(text), delimiter=delimiter)
                if any(c.strip() for c in r)]
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
            dropped.append(i)
            continue
        body.append(cells)
    if not body:
        raise ValueError(f"no usable data rows in {path}")

    def column(name):
        j = col_index[name]
        return [r[j] for r in body]

    def all_numeric(vals):
        try:
            for v in vals:
                float(v)
        except ValueError:
            return False
        return True

    def numeric_column(vals, name):
        try:
            col = np.array([float(v) for v in vals])
            if np.isfinite(col).all():
                return col
        except ValueError:
            pass
        for k, raw in enumerate(vals):
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

    def standardize(col):
        sd = col.std()
        return (col - col.mean()) / (sd if sd > 0 else 1.0)

    feature_blocks, feature_names = [], []
    for spec in schema.feature_columns:
        vals = column(spec.name)
        enc = spec.encoding
        if enc == "auto":
            enc = "numeric" if all_numeric(vals) else "categorical"
        if enc == "numeric":
            feature_blocks.append(standardize(numeric_column(vals, spec.name))[:, None])
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
            col = numeric_column(vals, spec.name)
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
    return Dataset(A, X, y, feature_names, sensitive_names, sensitive_levels,
                   groups_rowwise(A))


def groups_rowwise(A):
    """Row indices per distinct row of A, keyed in first-row order, built
    row by row: the reference for otfair.data._build_groups."""
    groups = {}
    for i, row in enumerate(map(tuple, A.tolist())):
        groups.setdefault(row, []).append(i)
    return {k: np.asarray(v, dtype=int) for k, v in groups.items()}


def sigmoid_two_branch(z):
    """otfair.model.sigmoid as two masked branches, 1/(1+exp(-z)) for
    z >= 0 and exp(z)/(1+exp(z)) below, clipped to [eps, 1-eps]."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    eps = np.finfo(float).eps
    return np.clip(out, eps, 1.0 - eps)


def train_lr_lbfgsb(d, l2_strength=1.0):
    """otfair.model.train_lr's objective (L2 penalty on every weight but the
    intercept) minimized from zero weights by scipy's L-BFGS-B: an independent
    minimizer of the same objective."""
    Z = d.design_matrix()
    y = d.y.astype(float)
    penalize = np.ones(Z.shape[1])
    penalize[-1] = 0.0  # intercept
    res = minimize(_nll, np.zeros(Z.shape[1]), args=(Z, y, l2_strength, penalize),
                   jac=_nll_grad, method="L-BFGS-B",
                   options={"maxiter": 500, "gtol": 1e-8, "ftol": 0.0})
    return LogisticModel(res.x, d.design_names())


def train_lr_two_sigmoids(d, l2_strength=1.0, include_sensitive=True):
    """otfair.model.train_lr's damped Newton loop as it was when each
    iteration scored the rows twice at the same theta: once for the gradient
    and again for the Hessian. The library must return the same bits."""
    Z = d.design_matrix(include_sensitive=include_sensitive)
    names = d.design_names(include_sensitive=include_sensitive)
    y = d.y.astype(float)
    penalize = np.ones(Z.shape[1])
    penalize[-1] = 0.0  # intercept
    args = (Z, y, l2_strength, penalize)
    theta = np.zeros(Z.shape[1])
    loss, grad = _nll(theta, *args), _nll_grad(theta, *args)
    for _ in range(LR_MAX_ITERS):
        if np.abs(grad).max() <= LR_TOL:
            break
        p = sigmoid(Z @ theta)
        hess = (Z.T * (p * (1.0 - p))) @ Z + np.diag(l2_strength * penalize)
        step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        t, slope = 1.0, grad @ step
        while ((new := _nll(theta + t * step, *args)) > loss + 1e-4 * t * slope
               and t > 1e-10):
            t *= 0.5
        if not new < loss:
            break
        theta, loss = theta + t * step, new
        grad = _nll_grad(theta, *args)
    converged = bool(np.abs(grad).max() <= max(LR_TOL, 1e-6))
    return LogisticModel(theta, names, converged=converged)


def design_matrix_hstack(d, indices=None, include_sensitive=True):
    """otfair.data.Dataset.design_matrix as an np.hstack of one block per
    one-hot sensitive level, then the features and the intercept column."""
    idx = np.arange(d.n) if indices is None else np.asarray(indices, dtype=int)
    blocks = []
    if include_sensitive:
        for j, levels in enumerate(d.sensitive_levels):
            codes = d.A[idx, j]
            for lv in range(1, len(levels)):
                blocks.append((codes == lv).astype(float)[:, None])
    blocks.append(d.X[idx])
    blocks.append(np.ones((len(idx), 1)))
    return np.hstack(blocks)


def dpp_transform_ranked(m, key, s):
    """otfair.dpp.dpp_transform by rank then quantile: the source rank of s
    over the group's sorted samples, r / n_src, then the target's
    left-continuous quantile at max(r / n_src, 1 / n_target)."""
    if key not in m.group_samples:
        raise KeyError(f"unknown group {key}")
    src = m.group_samples[key]
    s = np.asarray(s, dtype=float)
    u = np.searchsorted(src, s, side="right") / src.size
    out = m.target.quantile(np.maximum(u, 1.0 / m.target.n))
    return float(out) if out.ndim == 0 else out


def theta_gradient(model, pairs, batches, target_scores, reg, pair_mode):
    """Parameter gradient of the summed dual objectives, duals held fixed:
    the sum over groups of Z.T @ (w s (1 - s)), each group through its own
    pair, with the batches re-scored from the model."""
    grad = np.zeros_like(model.theta)
    for key, Z in batches.items():
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        pair = pairs[key]
        if Z.shape[1] != model.theta.shape[0]:
            raise ValueError("design width does not match model dimension")
        s, sbar = _as_batches(score_batch(model, Z), target_scores, pair_mode)
        fx, fy, diff = _features(pair.score_side.map, s, sbar, pair_mode)
        pot = _potentials(pair, fx, fy, pair_mode)[2]
        grad += _theta_term(pair, Z, s, alpha(reg, pot, np.abs(diff)), diff,
                            pair_mode, _grad_rows(pair.score_side.map, s))
    return grad


def estimate_reg_w1(xs_sampler, ys_sampler, cfg):
    """Estimate the regularized W1 between two sampled distributions by dual
    ascent alone, with the package's per-batch arithmetic: each batch's
    features evaluated once, an ascent, then the objective on the new pair.

    Samplers are callables (rng, n) -> array. Runs cfg.num_updates dual
    ascent steps and returns (running-average dual objective over the second
    half of the run, final DualPair).
    """
    map_seed, stream_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    pair = DualPair.zeros(make_rff(cfg.D, cfg.sigma2, map_seed))
    rng = np.random.default_rng(stream_seed)
    acc, count = 0.0, 0
    for k in range(cfg.num_updates):
        xs, ys = _as_batches(xs_sampler(rng, cfg.batch_scores),
                             ys_sampler(rng, cfg.batch_target), cfg.pair_mode)
        fx, fy, diff = _features(pair.score_side.map, xs, ys, cfg.pair_mode)
        cost = np.abs(diff)
        pair = _ascend(pair, cfg.reg, fx, fy,
                       _potentials(pair, fx, fy, cfg.pair_mode)[2], cost,
                       cfg.eps_dual, cfg.antisymmetric, cfg.pair_mode)
        lx, ly, pot = _potentials(pair, fx, fy, cfg.pair_mode)
        obj = _objective(cfg.reg, lx, ly, pot, cost, cfg.pair_mode,
                         alpha(cfg.reg, pot, cost))
        if not np.isfinite(obj) or abs(obj) > 1e12:
            raise DivergenceError(
                f"dual objective diverged at update {k}; reduce eps_dual")
        if k >= cfg.num_updates // 2:
            acc += float(obj)
            count += 1
    return acc / max(count, 1), pair


def coupling_cost(c, xs, ys):
    """Transport cost <T, C> of an otfair.dot.Coupling for cost |x - y|;
    equals the exact empirical W1."""
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    return float(np.sum(c.mass * np.abs(xs[c.rows] - ys[c.cols])))


def positive_rate(d, key):
    """Share of positive labels in group `key` of dataset d."""
    return float(d.y[d.groups[key]].mean())


def read_rows(path):
    """Read a CSV written by otfair.harness.write_rows: `update` as int,
    other cells as float, empty cells as nan."""
    with open(path, newline="") as fh:
        return [{k: int(float(v)) if k == "update" else float(v or "nan")
                 for k, v in row.items()} for row in csv.DictReader(fh)]
