"""Independent oracles shared by the test modules."""
import numpy as np


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
