"""Hot numeric kernels, vectorised with numpy.

Outcome sampling, coincidence tabulation and the 4-angle grid search;
``bench/run.py`` times the last two as layers of their own.

A trial has one uint8 row code, ``4 * pair + 2 * (d < 0) + (g < 0)``,
written only by :func:`row_code` and read back by :func:`trial_outcomes`;
a tally holds at most ``MAX_PAIRS`` = 63 pairs, so every code (at most
251) fits in a byte.  The Born sampler is :func:`lane_codes`: a trial
takes one 16-bit lane of raw words, whose top j bits, for k = 2^j pairs,
are the pair.  It gathers most codes from a bucket table of 2^14 entries
(Chen & Asau's guide table), keyed by the lane's top 14 bits; only a draw
whose bucket holds a threshold takes one more raw word, for a 53-bit
uniform u, and exact compares.  :func:`sample_outcomes` is its
reference: the same codes from float draws by exact compares alone.
:func:`count_outcomes` tallies one slice by a ``bincount`` of its codes,
two to a uint16; ``harness.tabulate`` hands it 65536 trials (``_CHUNK``) at
a time, so the intp copy that ``bincount`` makes stays at 0.25 MiB.
"""

from __future__ import annotations

import numpy as np

from .inequalities import chsh_variants

__all__ = [
    "backend",
    "row_code",
    "trial_outcomes",
    "bucket_table",
    "lane_codes",
    "sample_outcomes",
    "count_outcomes",
    "grid_max_abs_chsh",
]


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark manifests."""
    return "numpy"


MAX_PAIRS = 63  # so the codes (at most 251) are uint8


def _check_pair_count(n_pairs: int) -> None:
    if n_pairs > MAX_PAIRS:
        raise ValueError(f"at most {MAX_PAIRS} settings pairs, got {n_pairs}")


def _pair_indices(pair_index, n_pairs: int):
    """``pair_index`` as an array; a pair index outside ``range(n_pairs)``,
    or more than ``MAX_PAIRS`` pairs, raises ValueError."""
    _check_pair_count(n_pairs)
    pair_index = np.asarray(pair_index)
    if pair_index.size and not (pair_index.min() >= 0 and pair_index.max() < n_pairs):
        raise ValueError(f"pair index outside range({n_pairs})")
    return pair_index


def row_code(pair, d_negative, g_negative):
    """The uint8 row code ``4 * pair + 2 * d_negative + g_negative`` of pair
    indices below ``MAX_PAIRS`` and outcome signs (d < 0, g < 0), broadcast;
    at pair 0 it is the (pp, pm, mp, mm) column of a joints row."""
    code = 2 * np.asarray(d_negative, dtype=bool).view(np.uint8)
    code += np.asarray(g_negative, dtype=bool).view(np.uint8)
    code += 4 * np.asarray(pair).astype(np.uint8, copy=False)
    return code


def trial_outcomes(code):
    """The int8 outcome pair ``(1 - (code & 2), 1 - 2 * (code & 1))``."""
    # the cast to int8 wraps codes above 127 but keeps their low two bits
    low = np.asarray(code).astype(np.int8)
    return 1 - (low & 2), 1 - 2 * (low & 1)


def bucket_table(cum):
    """The (k, 2^14 / k) uint8 bucket table of :func:`lane_codes` for k =
    2^j pairs.  Entry [p, b] is the row code ``4p + #{j: cum[p, j] <= u}``
    of every u in bucket b, or the marker 4k, never a code, when a
    threshold of pair p lies strictly inside that bucket.  More than
    ``MAX_PAIRS`` rows, or a pair count that is not a power of two, raise
    ValueError."""
    cum = np.asarray(cum, dtype=np.float64)
    k = len(cum)
    _check_pair_count(k)
    if k < 1 or k & (k - 1):
        raise ValueError(f"a lane draw needs a power-of-two pair count, got {k}")
    w = (1 << 14) // k
    lo = np.arange(w) / w
    hi = lo + 1 / w
    # one threshold column at a time: no (k, w, 3) temporaries
    code = np.repeat(4 * np.arange(k, dtype=np.uint8)[:, None], w, axis=1)
    inside = np.zeros((k, w), dtype=bool)
    for t in cum.T[:, :, None]:
        code += t <= lo
        inside |= (t > lo) & (t < hi)
    code[inside] = 4 * k
    return code


def _compared_codes(u, pair, cum):
    """Row codes ``4 * pair + #{j: u >= cum[pair, j]}`` by exact compares."""
    return 4 * pair + (u[:, None] >= cum[pair]).sum(axis=1)


def lane_codes(lane, cum, table, refine):
    """The Born sampler: uint8 row codes of uint16 lanes, from ``table =
    bucket_table(cum)``.  A lane's top j bits are its pair and ``lane >> 2``
    its table key.  Each marked draw takes one raw word of ``refine(count)``,
    in order, rebuilds its 53-bit u from its lane's low 16 - j bits and that
    word's top 37 + j, and takes the exact compares of :func:`sample_outcomes`."""
    j = len(table).bit_length() - 1
    key = lane >> 2
    code = np.take(table.ravel(), key)
    marked = np.flatnonzero(code == 4 * len(table))
    low = lane[marked].astype(np.uint64) & ((1 << (16 - j)) - 1)
    u = (low << (37 + j) | refine(len(marked)) >> (27 - j)) * 2.0**-53
    code[marked] = _compared_codes(u, key[marked] >> (14 - j), cum)
    return code


def sample_outcomes(u, pair_index, cum):
    """Map uniform draws to +-1 outcome pairs via per-pair cumulative probs.

    ``cum`` has one row per settings pair holding the cumulative sums
    (p_pp, p_pp+p_pm, p_pp+p_pm+p_mp); the number of them at or below a
    draw is the low two bits of the trial's row code.  The reference of
    :func:`lane_codes`, by exact compares alone.  A draw outside [0, 1) is
    no uniform draw and raises ValueError, as do more than ``MAX_PAIRS`` pairs
    and a pair index outside ``range(len(cum))``.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    cum = np.ascontiguousarray(cum, dtype=np.float64)
    if not ((u >= 0.0) & (u < 1.0)).all():
        raise ValueError("draws must lie in [0, 1)")
    pair_index = _pair_indices(np.asarray(pair_index, dtype=np.int64), len(cum))
    return trial_outcomes(_compared_codes(u, pair_index, cum))


# trials per chunk of harness.tabulate and the trial CSV writer, whose
# per-chunk temporaries then stay small
_CHUNK = 1 << 16


def count_outcomes(pair_index, d, g, n_pairs: int):
    """Tally one slice of trials: an int64 (n_pairs, 4) table of the four
    outcome combinations per pair, an outcome counting as -1 when negative.
    ``bincount`` reads the codes two to a uint16 and copies those to intp, so
    ``harness.tabulate`` hands it ``_CHUNK`` trials (0.25 MiB) at a time.  A
    pair index outside ``range(n_pairs)``, or more than ``MAX_PAIRS``
    pairs, raises ValueError, even when empty."""
    pair_index = _pair_indices(pair_index, n_pairs)
    code = row_code(pair_index, np.asarray(d) < 0, np.asarray(g) < 0)
    n, even = 4 * n_pairs, len(code) & ~1
    # two codes per element, even + 256 * odd: row odd, column even
    both = np.bincount(code[:even].view("<u2"), minlength=256 * n).reshape(n, 256)
    counts = both[:, :n].sum(axis=0) + both[:, :n].sum(axis=1)
    counts[code[even:]] += 1  # an odd last code
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
    within a rounding slack of the top are scored, all in one
    :func:`~bellsim.inequalities.chsh_variants` call.  The closed-form
    grids give few such quadruples (2880 for a spin state at 1 degree,
    138240 for a photon state); a matrix of many exact ties, such as a
    constant one, makes all m^4 of them candidates.
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

    # the rows whose bound comes near the top; in each, the g whose
    # a[g] + max b or -(a[g] + min b) does too, and the g' likewise
    d, dp = np.nonzero(bound >= top - slack)
    a = corr[d] + corr[dp]
    b = corr[d] - corr[dp]
    g_ok = a >= top - b_max[d, dp, None] - slack
    g_ok |= -a >= top + b_min[d, dp, None] - slack
    gp_ok = b >= top - a_max[d, dp, None] - slack
    gp_ok |= -b >= top + a_min[d, dp, None] - slack
    # each (row, g) with every g' of its row, in row-major order, so argmax
    # keeps the first of tied quadruples
    row, g = np.nonzero(g_ok)
    pair, gp = np.nonzero(gp_ok[row])
    d, dp, g = d[row[pair]], dp[row[pair]], g[pair]
    # E in role order dg, dg', d'g, d'g'
    e = np.stack([corr[d, g], corr[d, gp], corr[dp, g], corr[dp, gp]], axis=-1)
    s = np.abs(chsh_variants(e)[:, 3])
    best = int(np.argmax(s))
    return float(s[best]), (int(d[best]), int(dp[best]), int(g[best]), int(gp[best]))
