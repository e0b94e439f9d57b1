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
