"""Hot numeric kernels, vectorised with numpy.

Outcome sampling, coincidence tabulation and the 4-angle grid scan.
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
    occurrence in row-major order on ties).
    """
    corr = np.ascontiguousarray(corr, dtype=np.float64)
    s = (
        corr[:, None, :, None]
        + corr[:, None, None, :]
        + corr[None, :, :, None]
        - corr[None, :, None, :]
    )
    flat = np.abs(s).ravel()
    best = int(np.argmax(flat))
    m = corr.shape[0]
    i_d, rem = divmod(best, m * m * m)
    i_dp, rem = divmod(rem, m * m)
    i_g, i_gp = divmod(rem, m)
    return float(flat[best]), (i_d, i_dp, i_g, i_gp)
