"""Hot numeric kernels, vectorised with numpy.

Outcome sampling, coincidence tabulation and the 4-angle grid search.
``bench/run.py`` times each of them as its own layer.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend",
    "sample_outcomes",
    "count_outcomes",
    "grid_max_abs_chsh",
]


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark manifests."""
    return "numpy"


# category c in 0..3 maps to (d, g): 0 (+,+), 1 (+,-), 2 (-,+), 3 (-,-).
# c counts how many of the three cumulative thresholds of the trial's
# settings pair lie at or below the uniform draw u.


def sample_outcomes(u, pair_index, cum):
    """Map uniform draws to +-1 outcome pairs via per-pair cumulative probs.

    ``cum`` has one row per settings pair holding the cumulative sums
    (p_pp, p_pp+p_pm, p_pp+p_pm+p_mp).
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    pair_index = np.ascontiguousarray(pair_index, dtype=np.int64)
    cum = np.ascontiguousarray(cum, dtype=np.float64)
    c = (u[:, None] >= cum[pair_index]).sum(axis=1)
    d = np.where(c < 2, 1, -1).astype(np.int8)
    g = np.where(c % 2 == 0, 1, -1).astype(np.int8)
    return d, g


def count_outcomes(pair_index, d, g, n_pairs: int):
    """Tally the four outcome combinations per settings pair."""
    pair_index = np.ascontiguousarray(pair_index, dtype=np.int64)
    d = np.ascontiguousarray(d, dtype=np.int8)
    g = np.ascontiguousarray(g, dtype=np.int8)
    cat = ((d < 0).astype(np.int64) << 1) | (g < 0).astype(np.int64)
    code = pair_index * 4 + cat
    return np.bincount(code, minlength=4 * n_pairs).reshape(n_pairs, 4)


def grid_max_abs_chsh(corr):
    """Maximize |C[d,g] + C[d,g'] + C[d',g] - C[d',g']| over a grid.

    ``corr`` is the matrix C[i, j] = E(angle_i, angle_j).  Returns the
    best value and the (i_d, i_dp, i_g, i_gp) index quadruple (first
    occurrence in row-major order on ties), exactly as scoring all m^4
    quadruples would.  For a row (d, d') the sum is a[g] + b[g'] with
    a = C[d] + C[d'] and b = C[d] - C[d'], so the row's largest |S| is
    max(max a + max b, -(min a + min b)): O(m^3) time, O(m^2) memory.
    Only the rows, and within them the g and g', whose bound comes
    within a rounding slack of the top are scored term by term.
    """
    corr = np.ascontiguousarray(corr, dtype=np.float64)
    if not np.isfinite(corr).all():
        raise ValueError("correlation matrix must be finite")
    m = corr.shape[0]
    # rounding moves a sum by a few ulps of 4*max|C|; the slack is far wider
    slack = 1e-12 * max(1.0, float(np.abs(corr).max()))
    a_max = np.empty((m, m))
    a_min = np.empty((m, m))
    b_max = np.empty((m, m))
    b_min = np.empty((m, m))
    for d in range(m):
        a = corr[d] + corr
        b = corr[d] - corr
        a.max(axis=1, out=a_max[d])
        a.min(axis=1, out=a_min[d])
        b.max(axis=1, out=b_max[d])
        b.min(axis=1, out=b_min[d])
    bound = np.maximum(a_max + b_max, -(a_min + b_min))
    top = bound.max()

    best, best_index = -1.0, None
    for d, dp in zip(*np.nonzero(bound >= top - slack)):
        a = corr[d] + corr[dp]
        b = corr[d] - corr[dp]
        g_ok = (a >= top - b_max[d, dp] - slack) | (-a >= top + b_min[d, dp] - slack)
        gp_ok = (b >= top - a_max[d, dp] - slack) | (-b >= top + a_min[d, dp] - slack)
        gs = np.flatnonzero(g_ok)
        gps = np.flatnonzero(gp_ok)
        s = np.abs(
            corr[d, gs][:, None]
            + corr[d, gps][None, :]
            + corr[dp, gs][:, None]
            - corr[dp, gps][None, :]
        )
        local = int(np.argmax(s))
        if s.flat[local] > best:
            i_g, i_gp = divmod(local, len(gps))
            best = float(s.flat[local])
            best_index = (int(d), int(dp), int(gs[i_g]), int(gps[i_gp]))
    return best, best_index
