import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellsim import _kernels
from bellsim.qstate import StateKind, closed_form_correlation


def random_inputs(seed, n=50_000, k=4):
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    pair_index = rng.integers(0, k, size=n)
    probs = rng.dirichlet(np.ones(4), size=k)
    cum = np.cumsum(probs, axis=1)[:, :3]
    return u, pair_index, cum


def test_sample_outcomes_against_naive_loop():
    u, pair_index, cum = random_inputs(1, n=2000)
    d, g = _kernels.sample_outcomes(u, pair_index, cum)
    for i in range(len(u)):
        c = sum(u[i] >= cum[pair_index[i], j] for j in range(3))
        assert d[i] == (1 if c < 2 else -1)
        assert g[i] == (1 if c % 2 == 0 else -1)


def test_sample_outcomes_zero_probability_categories_unreachable():
    # pairs with p_pp = 0 and p_mm = 0 must never emit those categories
    cum = np.array([[0.0, 0.5, 1.0]])
    u = np.random.default_rng(2).random(200_000)
    d, g = _kernels.sample_outcomes(u, np.zeros(len(u), dtype=np.int64), cum)
    assert not np.any((d == 1) & (g == 1))
    assert not np.any((d == -1) & (g == -1))


def test_count_outcomes_matches_manual_tally():
    u, pair_index, cum = random_inputs(3, n=30_000, k=5)
    d, g = _kernels.sample_outcomes(u, pair_index, cum)
    counts = _kernels.count_outcomes(pair_index, d, g, 5)
    assert counts.sum() == len(u)
    for p in range(5):
        mask = pair_index == p
        assert counts[p, 0] == np.sum(mask & (d == 1) & (g == 1))
        assert counts[p, 1] == np.sum(mask & (d == 1) & (g == -1))
        assert counts[p, 2] == np.sum(mask & (d == -1) & (g == 1))
        assert counts[p, 3] == np.sum(mask & (d == -1) & (g == -1))


def oracle_sample_outcomes(u, pair_index, cum):
    """The sampler as first written: an (m, 3) threshold gather per call."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    pair_index = np.ascontiguousarray(pair_index, dtype=np.int64)
    cum = np.ascontiguousarray(cum, dtype=np.float64)
    c = (u[:, None] >= cum[pair_index]).sum(axis=1)
    d = np.where(c < 2, 1, -1).astype(np.int8)
    g = np.where(c % 2 == 0, 1, -1).astype(np.int8)
    return d, g


def oracle_count_outcomes(pair_index, d, g, n_pairs):
    """The tally as first written: one int64 code over the whole log."""
    pair_index = np.ascontiguousarray(pair_index, dtype=np.int64)
    d = np.ascontiguousarray(d, dtype=np.int8)
    g = np.ascontiguousarray(g, dtype=np.int8)
    cat = ((d < 0).astype(np.int64) << 1) | (g < 0).astype(np.int64)
    code = pair_index * 4 + cat
    return np.bincount(code, minlength=4 * n_pairs).reshape(n_pairs, 4)


def assert_identical(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def cumulative(weights):
    """Cumulative rows of normalised integer weights; a zero weight gives
    two equal thresholds, so its outcome can never be drawn."""
    p = np.array(weights, dtype=np.float64)
    return np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)[:, :3]


cum_rows = st.lists(
    st.lists(st.integers(0, 8), min_size=4, max_size=4).filter(any),
    min_size=1,
    max_size=6,
).map(cumulative)


@settings(max_examples=200, deadline=None)
@given(cum_rows, st.data())
def test_sample_outcomes_matches_oracle(cum, data):
    k = len(cum)
    n = data.draw(st.integers(0, 50))
    # draws exactly on a threshold, at 0, and anywhere in [0, 1)
    thresholds = sorted(set(cum.ravel().tolist()) | {0.0})
    u = np.array(
        data.draw(st.lists(
            st.one_of(
                st.sampled_from(thresholds), st.floats(0.0, 1.0, exclude_max=True)
            ),
            min_size=n, max_size=n,
        )),
        dtype=np.float64,
    )
    pair_index = np.array(
        data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    assert_identical(
        _kernels.sample_outcomes(u, pair_index, cum),
        oracle_sample_outcomes(u, pair_index, cum),
    )


def test_sample_outcomes_block_matches_oracle():
    u, pair_index, cum = random_inputs(5, n=1 << 16)
    assert_identical(
        _kernels.sample_outcomes(u, pair_index, cum),
        oracle_sample_outcomes(u, pair_index, cum),
    )


def test_sample_outcomes_empty():
    u, pair_index, cum = random_inputs(6, n=0)
    d, g = _kernels.sample_outcomes(u, pair_index, cum)
    assert d.shape == g.shape == (0,)
    assert d.dtype == g.dtype == np.int8


def random_log(seed, n, n_pairs):
    """Pair indices in range and any int8 outcomes (the tally reads d < 0)."""
    rng = np.random.default_rng(seed)
    pair_index = rng.integers(0, n_pairs, size=n)
    d = rng.integers(-128, 128, size=n, dtype=np.int8)
    g = rng.integers(-128, 128, size=n, dtype=np.int8)
    return pair_index, d, g


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 4, 64, 65, 300]),
    st.integers(0, 3000),
    st.integers(0, 2**32 - 1),
)
def test_count_outcomes_matches_oracle(n_pairs, n, seed):
    pair_index, d, g = random_log(seed, n, n_pairs)
    got = _kernels.count_outcomes(pair_index, d, g, n_pairs)
    want = oracle_count_outcomes(pair_index, d, g, n_pairs)
    assert_identical([got], [want])


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("n_pairs", [4, 300])
def test_count_outcomes_across_chunk_boundary(offset, n_pairs):
    n = _kernels._COUNT_CHUNK + offset
    pair_index, d, g = random_log(n + n_pairs, n, n_pairs)
    # the last trial decides whether the final chunk is empty, full or one row
    pair_index[-1] = n_pairs - 1
    d[-1] = g[-1] = -1
    got = _kernels.count_outcomes(pair_index, d, g, n_pairs)
    assert_identical([got], [oracle_count_outcomes(pair_index, d, g, n_pairs)])
    assert got.sum() == n


def test_count_outcomes_empty():
    empty = np.zeros(0, dtype=np.int64)
    none = empty.astype(np.int8)
    got = _kernels.count_outcomes(empty, none, none, 4)
    assert_identical([got], [np.zeros((4, 4), dtype=np.int64)])


@pytest.mark.parametrize("bad", [-1, 4, 64, 256])
def test_count_outcomes_rejects_out_of_range_pairs(bad):
    pair_index, d, g = random_log(8, 100, 4)
    pair_index[50] = bad
    with pytest.raises(ValueError):
        oracle_count_outcomes(pair_index, d, g, 4)
    with pytest.raises(ValueError, match="pair index"):
        _kernels.count_outcomes(pair_index, d, g, 4)


@pytest.mark.parametrize(
    "n_pairs, dtype",
    [(1, np.uint8), (4, np.uint8), (64, np.uint8), (65, np.uint16),
     (16384, np.uint16), (16385, np.uint32)],
)
def test_trial_codes_match_the_row_code(n_pairs, dtype):
    pair_index, d, g = random_log(n_pairs, 5000, n_pairs)
    pair_index[-1] = n_pairs - 1
    code = _kernels.trial_codes(pair_index, d, g, n_pairs)
    assert code.dtype == dtype
    want = 4 * pair_index + 2 * (d < 0) + (g < 0)
    assert np.array_equal(code, want)


def test_trial_codes_read_the_outcome_sign():
    # the tally's reading: only a negative outcome counts as -1
    d = np.array([1, -1, 0, 5, -7, 127, -128], dtype=np.int8)
    code = _kernels.trial_codes(np.zeros(7, dtype=np.int64), d, d, 1)
    assert code.tolist() == [0, 3, 0, 0, 3, 0, 3]


@pytest.mark.parametrize("bad", [-1, 4, 256])
def test_trial_codes_reject_out_of_range_pairs(bad):
    pair_index, d, g = random_log(9, 100, 4)
    pair_index[30] = bad
    with pytest.raises(ValueError, match=r"pair index outside range\(4\)"):
        _kernels.trial_codes(pair_index, d, g, 4)


def test_trial_codes_empty():
    empty = np.zeros(0, dtype=np.int64)
    code = _kernels.trial_codes(empty, empty, empty, 4)
    assert code.dtype == np.uint8 and code.shape == (0,)


def test_trial_outcomes_of_the_four_categories():
    d, g = _kernels.trial_outcomes(np.arange(8, dtype=np.uint8))
    assert d.dtype == g.dtype == np.int8
    assert list(zip(d.tolist(), g.tolist())) == [(1, 1), (1, -1), (-1, 1), (-1, -1)] * 2


@pytest.mark.parametrize("n_pairs", [4, 65, 16385])
def test_trial_outcomes_invert_trial_codes(n_pairs):
    # wide codes (uint16, uint32) decode through their low two bits
    pair_index, d, g = random_log(n_pairs + 1, 5000, n_pairs)
    pair_index[-1] = n_pairs - 1
    got_d, got_g = _kernels.trial_outcomes(_kernels.trial_codes(pair_index, d, g, n_pairs))
    assert got_d.dtype == got_g.dtype == np.int8
    assert np.array_equal(got_d, np.where(d < 0, -1, 1))
    assert np.array_equal(got_g, np.where(g < 0, -1, 1))


def test_grid_max_against_brute_force():
    rng = np.random.default_rng(4)
    corr = rng.uniform(-1, 1, size=(7, 7))
    value, (i_d, i_dp, i_g, i_gp) = _kernels.grid_max_abs_chsh(corr)
    best = 0.0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for e in range(7):
                    s = abs(corr[a, c] + corr[a, e] + corr[b, c] - corr[b, e])
                    best = max(best, s)
    assert value == best
    assert (
        abs(corr[i_d, i_g] + corr[i_d, i_gp] + corr[i_dp, i_g] - corr[i_dp, i_gp])
        == value
    )


def brute_grid_max(corr):
    """O(m^4) oracle: every quadruple scored with the four-term expression,
    first maximum in row-major (d, d', g, g') order; one d at a time, so
    memory stays O(m^3)."""
    best, best_index = -1.0, None
    for d in range(corr.shape[0]):
        s = np.abs(
            corr[d][None, :, None]
            + corr[d][None, None, :]
            + corr[:, :, None]
            - corr[:, None, :]
        )
        flat = int(np.argmax(s))
        if s.flat[flat] > best:
            best = float(s.flat[flat])
            best_index = (d, *np.unravel_index(flat, s.shape))
    return best, tuple(int(i) for i in best_index)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda m: arrays(
            np.float64,
            (m, m),
            # a coarse lattice, so many quadruples tie
            elements=st.integers(-8, 8).map(lambda k: k / 8),
        )
    )
)
def test_grid_max_tied_matrices_match_oracle(corr):
    assert _kernels.grid_max_abs_chsh(corr) == brute_grid_max(corr)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda m: arrays(
            np.float64,
            (m, m),
            elements=st.floats(-1.0, 1.0).map(lambda x: round(x, 2)),
        )
    ),
    st.sampled_from([1e-3, 1.0, 7.5]),
)
def test_grid_max_rounded_matrices_match_oracle(corr, scale):
    corr = corr * scale
    assert _kernels.grid_max_abs_chsh(corr) == brute_grid_max(corr)


@pytest.mark.parametrize("kind", list(StateKind))
@pytest.mark.parametrize("step_deg", [15.0, 10.0, 7.5, 6.0, 5.0])
def test_grid_max_closed_form_grids_match_oracle(kind, step_deg):
    # the grids maximize_chsh searches; their symmetries tie many quadruples
    grid = np.arange(0.0, 2.0 * math.pi - 1e-12, math.radians(step_deg))
    corr = closed_form_correlation(kind, grid[:, None], grid[None, :])
    assert _kernels.grid_max_abs_chsh(corr) == brute_grid_max(corr)


def test_grid_max_rejects_non_finite():
    corr = np.zeros((3, 3))
    corr[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _kernels.grid_max_abs_chsh(corr)


def test_backend_reports_a_name():
    assert _kernels.backend() == "numpy"
