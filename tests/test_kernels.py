import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bellsim import _kernels, harness
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
    # draws exactly on a threshold below 1, at 0, and anywhere in [0, 1)
    thresholds = sorted({t for t in cum.ravel().tolist() if t < 1.0} | {0.0})
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
    assert_outcomes_match_oracle(*random_inputs(5, n=1 << 16))


def test_sample_outcomes_empty():
    u, pair_index, cum = random_inputs(6, n=0)
    d, g = _kernels.sample_outcomes(u, pair_index, cum)
    assert d.shape == g.shape == (0,)
    assert d.dtype == g.dtype == np.int8


def assert_outcomes_match_oracle(u, pair_index, cum):
    """sample_outcomes against the oracle; returns the outcome pair."""
    got = _kernels.sample_outcomes(u, pair_index, cum)
    assert_identical(got, oracle_sample_outcomes(u, pair_index, cum))
    return got


# one row per case: thresholds on bucket edges (of every table width),
# zero-probability outcomes (equal thresholds), thresholds at 0 and at 1,
# and rows left out of order as rounding can leave them
EDGE_ROWS = np.array([
    [0.25, 0.5, 0.75],
    [1 / 4096, 2 / 4096, 4095 / 4096],
    [0.0, 0.0, 1.0],
    [0.0, 0.5, 0.5],
    [0.3, 0.3, 0.3],
    [0.0, 0.0, 0.0],
    [1.0, 1.0, 1.0],
    [0.5, np.nextafter(0.5, 0.0), 1.0],
    [0.7, 0.2, 0.9],
])


def test_bucket_table_marks_only_buckets_that_hold_a_threshold():
    cum = cumulative([[1, 2, 3, 4], [4, 3, 2, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
    table = _kernels.bucket_table(cum)
    assert table.shape == (4, 4096) and table.dtype == np.uint8
    assert table.nbytes == 16 << 10
    inside = (cum > 0.0) & (cum < 1.0) & (cum * 4096 % 1 != 0)
    assert np.count_nonzero(table == 16) == np.count_nonzero(inside)
    unmarked = table != 16
    pairs = np.broadcast_to(np.arange(4)[:, None], table.shape)
    assert np.array_equal((table >> 2)[unmarked], pairs[unmarked])


def words_of(mantissa, pair, k, junk):
    """Raw words of a k = 2^j pair table: the pair in the top j bits, the
    draw u = mantissa * 2^-53 in the next 53, then 11 - j junk bits that no
    code may read."""
    j = k.bit_length() - 1
    word = np.asarray(mantissa, dtype=np.uint64) << (11 - j)
    word |= junk >> (53 + j)
    if j:
        word |= np.asarray(pair, dtype=np.uint64) << (64 - j)
    return word


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 32])
def test_word_codes_on_thresholds_and_bucket_edges(k):
    # u at 0, at 1 - 2^-53, on and beside every bucket edge and every
    # threshold; the rows of each k-row table come from EDGE_ROWS, random
    # rows on the 2^-53 grid and random cumulative rows
    rng = np.random.default_rng(40 + k)
    on_grid = np.sort(rng.integers(0, 1 << 53, size=(23, 3)), axis=1) * 2.0**-53
    weights = rng.integers(0, 9, size=(32, 4)) + [0, 0, 0, 1]
    rows = np.concatenate([EDGE_ROWS, on_grid, cumulative(weights)])
    j = k.bit_length() - 1
    w = 1 << (14 - j)
    # bucket b's lower edge b / w as a 53-bit mantissa
    edges = np.arange(w, dtype=np.uint64) << (39 + j)
    ends = np.array([0, (1 << 53) - 1], dtype=np.uint64)
    on_threshold = 0
    for cum in rows.reshape(-1, k, 3):
        table = _kernels.bucket_table(cum)
        assert table.shape == (k, w)
        mantissa, pair = [], []
        for p in range(k):
            t = (np.minimum(cum[p], 1.0) * 2.0**53).astype(np.uint64)
            m = np.concatenate([ends, edges, edges - 1, t, t - 1, t + 1])
            m = m[m < 1 << 53]
            mantissa.append(m)
            pair.append(np.full(len(m), p))
        mantissa, pair = np.concatenate(mantissa), np.concatenate(pair)
        junk = rng.bit_generator.random_raw(len(mantissa))
        code = _kernels.word_codes(words_of(mantissa, pair, k, junk), cum, table)
        u = mantissa * 2.0**-53
        assert code.dtype == np.uint8
        assert np.array_equal(code, 4 * pair + (u[:, None] >= cum[pair]).sum(axis=1))
        on_threshold += np.count_nonzero(u[:, None] == cum[pair])
    assert on_threshold >= 23 * 3


def test_word_codes_of_one_pair_read_the_generators_uniform():
    # numpy's PCG64 random() is (raw >> 11) * 2^-53, so with no pair bits a
    # word's draw is the uniform the generator would have returned
    raw = np.random.default_rng(12).bit_generator.random_raw(1 << 16)
    u = np.random.default_rng(12).random(1 << 16)
    assert np.array_equal((raw >> 11) * 2.0**-53, u)
    cum = cumulative([[1, 2, 3, 4]])
    code = _kernels.word_codes(raw, cum, _kernels.bucket_table(cum))
    assert np.array_equal(code, (u[:, None] >= cum[0]).sum(axis=1))


@pytest.mark.parametrize("k", [3, 5, 63])
def test_word_codes_need_a_power_of_two_pairs(k):
    cum = cumulative(np.ones((k, 4)))
    word = np.zeros(4, dtype=np.uint64)
    with pytest.raises(ValueError, match=f"power-of-two pair count, got {k}"):
        _kernels.word_codes(word, cum, _kernels.bucket_table(cum))


def test_sample_codes_with_63_pairs_keep_code_251():
    # 63 pairs, the most a tally holds: 251 is pair 62's (-1, -1), in uint8;
    # the exact-compare sampler takes any pair count up to the cap
    rng = np.random.default_rng(8)
    cum = cumulative(rng.integers(1, 9, size=(63, 4)))
    u = rng.random(200_000)
    pair_index = rng.integers(0, 63, size=len(u))
    d, g = assert_outcomes_match_oracle(u, pair_index, cum)
    assert (_kernels.trial_codes(pair_index, d, g, 63) == 251).any()


def test_sample_codes_with_64_pairs_keep_code_255():
    # 64 pairs would give pair 63's (-1, -1) code 255 and the bucket
    # table's marker 256, which uint8 wraps onto pair 0's (+1, +1): the
    # table and the reference sampler both refuse 64 pairs
    rng = np.random.default_rng(8)
    cum = cumulative(rng.integers(1, 9, size=(64, 4)))
    u = rng.random(1000)
    pair_index = rng.integers(0, 64, size=len(u))
    for sample in (
        lambda: _kernels.bucket_table(cum),
        lambda: _kernels.sample_outcomes(u, pair_index, cum),
    ):
        with pytest.raises(ValueError, match="at most 63 settings pairs, got 64"):
            sample()


def test_300_pairs_raise():
    rng = np.random.default_rng(9)
    cum = cumulative(rng.integers(1, 9, size=(300, 4)))
    u = rng.random(1000)
    pair_index = rng.integers(0, 300, size=len(u))
    for sample in (
        lambda: _kernels.bucket_table(cum),
        lambda: _kernels.sample_outcomes(u, pair_index, cum),
    ):
        with pytest.raises(ValueError, match="at most 63 settings pairs, got 300"):
            sample()


def test_bucket_table_size_is_bounded():
    # one table shape: k = 2^j pairs of 2^14 / k buckets, 16 KiB in uint8;
    # any other pair count up to the cap raises
    rng = np.random.default_rng(10)
    for k in range(1, _kernels.MAX_PAIRS + 1):
        cum = cumulative(rng.integers(1, 9, size=(k, 4)))
        if k & (k - 1):
            with pytest.raises(ValueError, match=f"power-of-two pair count, got {k}"):
                _kernels.bucket_table(cum)
            continue
        table = _kernels.bucket_table(cum)
        assert table.shape == (k, (1 << 14) // k) and table.dtype == np.uint8
        assert table.nbytes == 16 << 10


@pytest.mark.parametrize(
    "draw",
    [1.0, -0.5, 2.0, np.nan, np.inf, -np.inf, -0.0, np.nextafter(1.0, 2.0), 1e300],
)
def test_sample_outcomes_keep_draws_outside_the_unit_interval_in_their_pair(draw):
    # a draw outside [0, 1), nan and the infinities included, is no
    # uniform draw, so it raises; -0.0 lies inside [0, 1)
    cum = EDGE_ROWS
    pair_index = np.arange(len(cum), dtype=np.int64)
    u = np.full(len(cum), draw)
    mixed = np.concatenate([u, np.linspace(0.0, 0.99, len(cum))])
    pairs = np.concatenate([pair_index, pair_index[::-1]])
    if 0.0 <= draw < 1.0:
        assert_identical(
            _kernels.sample_outcomes(mixed, pairs, cum),
            oracle_sample_outcomes(mixed, pairs, cum),
        )
        return
    for draws, index in ((u, pair_index), (mixed, pairs)):
        with pytest.raises(ValueError, match=r"draws must lie in \[0, 1\)"):
            _kernels.sample_outcomes(draws, index, cum)


def random_log(seed, n, n_pairs):
    """Pair indices in range and any int8 outcomes (the tally reads d < 0)."""
    rng = np.random.default_rng(seed)
    pair_index = rng.integers(0, n_pairs, size=n)
    d = rng.integers(-128, 128, size=n, dtype=np.int8)
    g = rng.integers(-128, 128, size=n, dtype=np.int8)
    return pair_index, d, g


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 4, 63]),
    st.integers(0, 3000),
    st.integers(0, 2**32 - 1),
)
def test_count_outcomes_matches_oracle(n_pairs, n, seed):
    pair_index, d, g = random_log(seed, n, n_pairs)
    got = _kernels.count_outcomes(pair_index, d, g, n_pairs)
    want = oracle_count_outcomes(pair_index, d, g, n_pairs)
    assert_identical([got], [want])


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("n_pairs", [4, 63])
def test_count_outcomes_across_chunk_boundary(offset, n_pairs):
    n = _kernels._CHUNK + offset
    pair_index, d, g = random_log(n + n_pairs, n, n_pairs)
    # the last trial decides whether the final chunk is empty, full or one row
    pair_index[-1] = n_pairs - 1
    d[-1] = g[-1] = -1
    got = _kernels.count_outcomes(pair_index, d, g, n_pairs)
    assert_identical([got], [oracle_count_outcomes(pair_index, d, g, n_pairs)])
    assert got.sum() == n


def test_count_outcomes_memory_budget(traced_peak):
    # bincount copies its input to intp: one 65536-trial chunk of it is
    # 0.5 MiB, where the whole 10M-trial log would be 80 MB
    n = 10_000_000
    rng = np.random.default_rng(9)
    pair_index = rng.integers(0, 4, size=n, dtype=np.uint8)
    d = rng.integers(-128, 128, size=n, dtype=np.int8)
    g = rng.integers(-128, 128, size=n, dtype=np.int8)
    counts, peak = traced_peak(lambda: _kernels.count_outcomes(pair_index, d, g, 4))
    assert counts.sum() == n
    assert peak <= 1 << 20


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


def test_row_code_of_every_pair_and_outcome():
    pair = np.arange(_kernels.MAX_PAIRS).repeat(4)
    d_negative = np.tile([False, False, True, True], _kernels.MAX_PAIRS)
    g_negative = np.tile([False, True, False, True], _kernels.MAX_PAIRS)
    code = _kernels.row_code(pair, d_negative, g_negative)
    assert code.dtype == np.uint8
    assert code.tolist() == (4 * pair + 2 * d_negative + g_negative).tolist()
    assert code.tolist() == list(range(4 * _kernels.MAX_PAIRS))
    # a scalar pair broadcasts over the outcome arrays
    for p in range(_kernels.MAX_PAIRS):
        assert _kernels.row_code(p, d_negative[:4], g_negative[:4]).tolist() == [
            4 * p, 4 * p + 1, 4 * p + 2, 4 * p + 3
        ]


def test_64_pairs_raise():
    pairs = tuple((0.01 * p, 0.0) for p in range(64))
    pair_index, d, g = random_log(11, 100, 63)
    empty = pair_index[:0]
    for build in (
        lambda: harness.SettingsSchedule(pairs=pairs),
        lambda: _kernels.bucket_table(cumulative(np.ones((64, 4)))),
        lambda: _kernels.trial_codes(pair_index, d, g, 64),
        lambda: _kernels.count_outcomes(pair_index, d, g, 64),
        lambda: _kernels.count_outcomes(empty, d[:0], g[:0], 64),
    ):
        with pytest.raises(ValueError, match="at most 63 settings pairs, got 64"):
            build()
    # 63 pairs fit the codes, and the most a schedule holds is 32
    assert _kernels.count_outcomes(empty, d[:0], g[:0], 63).shape == (63, 4)
    harness.SettingsSchedule(pairs=pairs[:32])


@pytest.mark.parametrize(
    "n_pairs, dtype",
    [(1, np.uint8), (4, np.uint8), (63, np.uint8), (65, np.uint16),
     (16384, np.uint16), (16385, np.uint32)],
)
def test_trial_codes_match_the_row_code(n_pairs, dtype):
    # pair indices of any integer dtype give uint8 codes; past the cap (the
    # pair counts that once took uint16 and uint32 codes) the call raises
    # rather than wrap a code past 255
    k = min(n_pairs, _kernels.MAX_PAIRS)
    pair_index, d, g = random_log(n_pairs, 5000, k)
    pair_index = pair_index.astype(dtype)
    pair_index[-1] = k - 1
    code = _kernels.trial_codes(pair_index, d, g, k)
    assert code.dtype == np.uint8
    want = 4 * pair_index.astype(np.int64) + 2 * (d < 0) + (g < 0)
    assert np.array_equal(code, want)
    if n_pairs > k:
        pair_index[-1] = n_pairs - 1
        with pytest.raises(ValueError, match=f"at most 63 settings pairs, got {n_pairs}"):
            _kernels.trial_codes(pair_index, d, g, n_pairs)


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


@pytest.mark.parametrize("n_pairs", [4, 63, 65, 16385])
def test_trial_outcomes_invert_trial_codes(n_pairs):
    # codes above 127 (pairs 32 and up) decode through their low two bits;
    # a log of more than 63 pairs gets no codes to decode
    k = min(n_pairs, _kernels.MAX_PAIRS)
    pair_index, d, g = random_log(n_pairs + 1, 5000, k)
    pair_index[-1] = k - 1
    got_d, got_g = _kernels.trial_outcomes(_kernels.trial_codes(pair_index, d, g, k))
    assert got_d.dtype == got_g.dtype == np.int8
    assert np.array_equal(got_d, np.where(d < 0, -1, 1))
    assert np.array_equal(got_g, np.where(g < 0, -1, 1))
    if n_pairs > k:
        with pytest.raises(ValueError, match=f"at most 63 settings pairs, got {n_pairs}"):
            _kernels.trial_codes(pair_index, d, g, n_pairs)


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
