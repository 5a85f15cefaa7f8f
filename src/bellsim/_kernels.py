"""Hot numeric kernels, vectorised with numpy.

Outcome sampling, coincidence tabulation and the 4-angle grid search.
``bench/run.py`` times each of them as its own layer.

A trial has one row code, ``pair << 2 | (d < 0) << 1 | (g < 0)``
(:func:`trial_codes`, read back by :func:`trial_outcomes`).  The sampler
sums three 1-D threshold compares as uint8 into the code's low two bits;
the tally adds the ``bincount`` of the codes of each chunk of 65536
trials (``_CHUNK``) into one int64 table, so the intp copy that
``bincount`` makes of its input stays at 0.5 MiB.
The tally takes the pair index in whatever integer dtype it is given:
``harness.run_trials`` and ``cli.read_trials_csv`` store uint8 for up to
256 pairs, so a four-pair log of 3 bytes per trial is never widened.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "backend",
    "trial_codes",
    "trial_outcomes",
    "sample_outcomes",
    "count_outcomes",
    "grid_max_abs_chsh",
]


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark manifests."""
    return "numpy"


def trial_codes(pair_index, d, g, n_pairs: int):
    """Row code ``pair << 2 | (d < 0) << 1 | (g < 0)`` of each trial.

    The codes have dtype ``np.min_scalar_type(4 * n_pairs - 1)``.  A pair
    index outside ``range(n_pairs)`` raises ValueError.
    """
    pair_index = np.asarray(pair_index)
    if pair_index.size and not (pair_index.min() >= 0 and pair_index.max() < n_pairs):
        raise ValueError(f"pair index outside range({n_pairs})")
    code = pair_index.astype(np.min_scalar_type(max(4 * n_pairs - 1, 0)))
    code <<= 2
    code |= (np.asarray(d) < 0).view(np.uint8) << 1
    code |= (np.asarray(g) < 0).view(np.uint8)
    return code


def trial_outcomes(code):
    """The int8 outcome pair ``(1 - (code & 2), 1 - 2 * (code & 1))``."""
    # the cast to int8 wraps wide codes but keeps their low two bits
    low = np.asarray(code).astype(np.int8)
    return 1 - (low & 2), 1 - 2 * (low & 1)


def sample_outcomes(u, pair_index, cum):
    """Map uniform draws to +-1 outcome pairs via per-pair cumulative probs.

    ``cum`` has one row per settings pair holding the cumulative sums
    (p_pp, p_pp+p_pm, p_pp+p_pm+p_mp); the number of them at or below a
    draw is the low two bits of the trial's row code.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    pair_index = np.ascontiguousarray(pair_index, dtype=np.int64)
    cum = np.ascontiguousarray(cum, dtype=np.float64)
    c = np.zeros(u.shape, dtype=np.uint8)
    for column in cum.T:
        c += u >= column[pair_index]
    return trial_outcomes(c)


# trials per chunk of the tally and the trial CSV writer, whose per-chunk
# temporaries then stay small
_CHUNK = 1 << 16


def count_outcomes(pair_index, d, g, n_pairs: int):
    """Tally the four outcome combinations per settings pair.

    A pair index outside ``range(n_pairs)`` raises ValueError.
    """
    pair_index = np.asarray(pair_index)
    d = np.ascontiguousarray(d, dtype=np.int8)
    g = np.ascontiguousarray(g, dtype=np.int8)
    counts = np.zeros(4 * n_pairs, dtype=np.int64)
    for start in range(0, len(pair_index), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        code = trial_codes(pair_index[chunk], d[chunk], g[chunk], n_pairs)
        counts += np.bincount(code, minlength=len(counts))
    return counts.reshape(n_pairs, 4)


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
