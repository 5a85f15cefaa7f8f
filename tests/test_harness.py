import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import bellsim
from bellsim import _kernels, harness, lhv
from bellsim.harness import (
    BLOCK_SIZE,
    PAIR_LABELS,
    SINGLET_CHSH_ANGLES,
    SettingsSchedule,
    TrialLog,
    analyze_chsh,
    chsh_schedule,
    maximize_chsh,
    run_trials,
    tabulate,
    wigner_scan,
)
from bellsim.inequalities import (
    EmpiricalSource,
    QuantumBornSource,
    QuantumClosedFormSource,
    bell_d1,
    chsh_d4,
    wigner_check,
)
from bellsim.lhv import quantum_mimic_attempt, sign_model
from bellsim.qstate import (
    StateKind,
    closed_form_correlation,
    joint_distribution,
    make_state,
)

TWO_SQRT2 = 2 * math.sqrt(2.0)

SINGLET = make_state(StateKind.SPIN_ANTICORRELATED)


def equal_angle_schedule(theta=0.0):
    return SettingsSchedule(pairs=((theta, theta),))


class TestRunTrials:
    def test_quantum_equal_angles_strictly_opposite(self):
        log = run_trials(SINGLET, equal_angle_schedule(), 1000, seed=0)
        assert np.all(log.outcome_d == -log.outcome_g)

    def test_sign_model_equal_angles_strictly_opposite(self):
        log = run_trials(sign_model(), equal_angle_schedule(), 1000, seed=0)
        assert np.all(log.outcome_d == -log.outcome_g)

    def test_single_trial(self):
        log = run_trials(SINGLET, equal_angle_schedule(), 1, seed=0)
        assert len(log) == 1
        assert log.outcome_d[0] in (-1, 1)

    def test_schedule_needs_a_pair(self):
        with pytest.raises(ValueError, match="at least one settings pair"):
            SettingsSchedule(pairs=())

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trials(SINGLET, equal_angle_schedule(), 0, seed=0)

    def test_outcomes_within_codomain(self):
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        for source in (SINGLET, sign_model()):
            log = run_trials(source, schedule, 5000, seed=3)
            assert set(np.unique(log.outcome_d)) <= {-1, 1}
            assert set(np.unique(log.outcome_g)) <= {-1, 1}
            assert log.pair_index.min() >= 0 and log.pair_index.max() <= 3

    def test_seed_determinism(self):
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        a = run_trials(SINGLET, schedule, 200_000, seed=12)
        b = run_trials(SINGLET, schedule, 200_000, seed=12)
        assert np.array_equal(a.pair_index, b.pair_index)
        assert np.array_equal(a.outcome_d, b.outcome_d)
        assert np.array_equal(a.outcome_g, b.outcome_g)
        c = run_trials(SINGLET, schedule, 200_000, seed=13)
        assert not np.array_equal(a.outcome_d, c.outcome_d)

    def test_block_order_independence(self):
        # compute the blocks out of order, each from its own spawned
        # substream, as a pool of workers would; the assembly must be
        # identical to the sequential run
        n = int(2.5 * BLOCK_SIZE)
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        log = run_trials(SINGLET, schedule, n, seed=99)

        born = harness._born_tables(SINGLET, schedule.pairs)
        children = np.random.SeedSequence(99).spawn(math.ceil(n / BLOCK_SIZE))
        blocks = list(enumerate(harness._block_slices(n)))
        assembled_d = np.empty(n, dtype=np.int8)
        assembled_idx = np.empty(n, dtype=np.int64)
        for block, (start, stop) in reversed(blocks):
            code = harness._generate_block(
                SINGLET, schedule, born, children[block], stop - start
            )
            assembled_idx[start:stop] = code >> 2
            assembled_d[start:stop] = _kernels.trial_outcomes(code)[0]
        assert np.array_equal(assembled_d, log.outcome_d)
        assert np.array_equal(assembled_idx, log.pair_index)

    def test_lhv_block_determinism(self):
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        a = run_trials(sign_model(), schedule, 100_000, seed=5)
        b = run_trials(sign_model(), schedule, 100_000, seed=5)
        assert np.array_equal(a.outcome_d, b.outcome_d)
        assert np.array_equal(a.outcome_g, b.outcome_g)

    def test_lhv_block_matches_per_pair_masks(self):
        pairs = ((0.0, 0.4), (1.0, 0.4), (0.0, 0.4), (2.5, -1.0), (0.3, 0.3),
                 (-0.7, 2.2), (1.9, 1.9), (0.3, -0.5))
        assert_lhv_block_matches_per_pair_masks(pairs)
        # one pair, as lhv-sim runs: its responses see lam and scalar angles
        assert_lhv_block_matches_per_pair_masks(((0.4, -1.1),))

    def test_lhv_block_with_wide_keys_matches_per_pair_masks(self):
        # 32 pairs, the most a schedule holds: five pair bits, codes up to 127
        pairs = tuple((0.01 * p, -0.02 * (p % 7)) for p in range(32))
        assert_lhv_block_matches_per_pair_masks(pairs)

    def test_lhv_block_with_pairs_that_draw_no_trials(self):
        # 3 trials over 8 pairs: at least 5 pairs draw none, and each wing's
        # one call sees the 3 trials' own angles only
        pairs = tuple((0.3 * p, -0.2 * p) for p in range(8))
        assert_lhv_block_matches_per_pair_masks(pairs, m=3)

    def test_lhv_block_memory_budget(self, traced_peak):
        # one full four-pair mimic block: lam, one wing's per-trial angles at
        # a time and the response temporaries
        model = quantum_mimic_attempt()
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        child = np.random.SeedSequence(23)
        code, peak = traced_peak(
            lambda: harness._generate_block(model, schedule, None, child, BLOCK_SIZE)
        )
        assert len(code) == BLOCK_SIZE
        assert peak <= 5 << 19  # 2.5 MiB

    @pytest.mark.parametrize("n_pairs, dtype", [(4, np.uint8), (32, np.uint8)])
    def test_pair_index_is_stored_narrow(self, n_pairs, dtype):
        # each block's pairs are the top bits of the lanes of the raw words
        # its substream drew; the log keeps the same values in uint8 row codes
        n = int(2.5 * BLOCK_SIZE)
        pairs = tuple((0.01 * p, -0.02 * (p % 7)) for p in range(n_pairs))
        schedule = SettingsSchedule(pairs=pairs)
        log = run_trials(SINGLET, schedule, n, seed=21)
        assert log.pair_index.dtype == dtype

        born = harness._born_tables(SINGLET, schedule.pairs)
        children = np.random.SeedSequence(21).spawn(math.ceil(n / BLOCK_SIZE))
        assembled = np.empty(n, dtype=np.int64)
        for block, (start, stop) in enumerate(harness._block_slices(n)):
            code = harness._generate_block(
                SINGLET, schedule, born, children[block], stop - start
            )
            idx = pair_bits(children[block], stop - start, n_pairs)
            assert np.array_equal(code >> 2, idx)
            assembled[start:stop] = idx
        assert np.array_equal(log.pair_index, assembled)
        assert assembled.max() == n_pairs - 1

    @pytest.mark.parametrize("n_pairs", [1, 2, 4, 8, 16, 32])
    def test_pair_bits_are_uniform(self, n_pairs):
        n = 1 << 20
        pairs = tuple((0.1 * p, 0.2 - 0.05 * p) for p in range(n_pairs))
        log = run_trials(SINGLET, SettingsSchedule(pairs=pairs), n, seed=31 + n_pairs)
        observed = np.bincount(log.pair_index, minlength=n_pairs)
        assert len(observed) == n_pairs
        expected = n / n_pairs
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        if n_pairs == 1:
            assert chi2 == 0.0
        else:
            assert chi2 <= chi2_bound(n_pairs - 1)

    @pytest.mark.parametrize("kind", list(StateKind), ids=lambda kind: kind.value)
    def test_born_cells_fit_the_born_rule(self, kind):
        # each pair's four cells against its Born probabilities times the
        # pair's trials, and all 16 cells against the Born probabilities / 4
        # times n
        n = 1 << 21
        angles = (0.3, -1.2, 2.1, 0.8)
        schedule = chsh_schedule(*angles)
        counts = tabulate(run_trials(make_state(kind), schedule, n, seed=41)).counts
        delta, gamma = np.array(schedule.pairs).T
        born = joint_distribution(make_state(kind), delta, gamma)
        assert (born * n / 4).min() >= 1000
        per_pair = counts.sum(axis=1, keepdims=True)
        for p in range(4):
            expected = born[p] * per_pair[p]
            chi2 = float(((counts[p] - expected) ** 2 / expected).sum())
            assert chi2 <= chi2_bound(3), (p, chi2)
        expected = born * n / 4
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= chi2_bound(15)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 4097, BLOCK_SIZE])
    def test_lanes_are_little_endian_16_bit_slices(self, m):
        words = np.random.default_rng(m).bit_generator.random_raw(-(-m // 4))

        def raw(count):
            assert count == len(words)
            return words

        lane = harness._lanes(raw, m)
        assert lane.dtype == np.uint16
        assert np.array_equal(lane, lane_oracle(words, m))
        # the same words stored big-endian give the same lanes
        assert np.array_equal(harness._lanes(lambda _: words.astype(">u8"), m), lane)

    @pytest.mark.parametrize("n_pairs", [1, 4, 32])
    @pytest.mark.parametrize("m", [1, 7, 4096, BLOCK_SIZE - 3, BLOCK_SIZE])
    def test_born_draw_budget(self, n_pairs, m):
        # a Generator passed as the child is the block's own, so the next
        # raw word it gives is the one after the block's draws
        pairs = tuple((0.3 * p, 1.0 - 0.7 * p) for p in range(n_pairs))
        cum, table = born = harness._born_tables(SINGLET, pairs)
        seed = np.random.SeedSequence(100 + m)
        rng = np.random.default_rng(seed)
        schedule = SettingsSchedule(pairs=pairs)
        harness._generate_block(SINGLET, schedule, born, rng, m)
        after = rng.bit_generator.random_raw(1)
        replay = np.random.default_rng(seed).bit_generator
        lane = lane_oracle(replay.random_raw(-(-m // 4)), m)
        marked = np.count_nonzero(table.ravel()[lane >> 2] == 4 * n_pairs)
        replay.random_raw(marked)
        assert np.array_equal(replay.random_raw(1), after)
        if m == BLOCK_SIZE:
            assert marked > 0

    @pytest.mark.parametrize("q", [0, 1, 4095])
    def test_partial_born_blocks_share_their_prefix(self, q):
        # m = 4q + 1 to 4q + 4 draw the same q + 1 lane words, so the same
        # refinement words after them
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        born = harness._born_tables(SINGLET, schedule.pairs)
        seed = np.random.SeedSequence(61)
        codes = [
            harness._generate_block(SINGLET, schedule, born, seed, 4 * q + r)
            for r in (1, 2, 3, 4)
        ]
        for shorter, longer in zip(codes, codes[1:]):
            assert np.array_equal(longer[:-1], shorter)

    @pytest.mark.parametrize("n_pairs", [4, 8])
    def test_settings_do_not_depend_on_the_source(self, n_pairs):
        # free choice: with the same schedule and seed, a Born run and every
        # LHV run give each trial the same settings pair
        pairs = tuple((0.4 * p, 1.0 - 0.3 * p) for p in range(n_pairs))
        schedule = SettingsSchedule(pairs=pairs)
        n = int(1.5 * BLOCK_SIZE)
        born = run_trials(SINGLET, schedule, n, seed=29)
        for model in (sign_model(), quantum_mimic_attempt(), lhv.constant_model()):
            log = run_trials(model, schedule, n, seed=29)
            assert np.array_equal(log.pair_index, born.pair_index)

    @pytest.mark.parametrize("n_pairs", [3, 5, 63])
    def test_schedule_needs_a_power_of_two_pairs(self, n_pairs):
        pairs = tuple((0.1 * p, 0.0) for p in range(n_pairs))
        with pytest.raises(ValueError, match=f"power of two, got {n_pairs}"):
            SettingsSchedule(pairs=pairs)

    def test_born_run_and_tally_memory_budget(self, traced_peak):
        # a 1-byte row code per trial plus fixed-size block and tally-chunk
        # temporaries
        n = 1 << 23
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        counts, peak = traced_peak(
            lambda: tabulate(run_trials(SINGLET, schedule, n, seed=4)).counts
        )
        assert counts.sum() == n
        assert peak <= n + (16 << 20)


def chi2_bound(dof, z=4.75):
    """The chi-squared quantile of upper tail about 1e-6 (z = 4.75 standard
    normal deviations), by the Wilson-Hilferty approximation."""
    c = 2 / (9 * dof)
    return dof * (1 - c + z * math.sqrt(c)) ** 3


def lane_oracle(words, m):
    """The first m lanes of raw words, by Python ints: lane 4q + i is bits
    16i to 16i + 15 of word q."""
    lanes = [(int(words[i // 4]) >> 16 * (i % 4)) & 0xFFFF for i in range(m)]
    return np.array(lanes, dtype=np.uint16)


def pair_bits(child, m, n_pairs):
    """The pair of each of a block's m trials, for more than one pair: the
    top log2(n_pairs) bits of the lanes of the ceil(m / 4) raw words its
    substream draws first."""
    words = np.random.default_rng(child).bit_generator.random_raw(-(-m // 4))
    return lane_oracle(words, m) >> (17 - n_pairs.bit_length())


def assert_lhv_block_matches_per_pair_masks(pairs, m=70_000):
    # reference: select each pair's trials with a boolean mask and evaluate
    # the responses there; the block itself calls each response once, on
    # the block's lam in trial order, with each trial's own pair angle (a
    # scalar for one pair)
    model = quantum_mimic_attempt()
    seen = []

    def recording(response):
        def respond(lam, angle):
            seen.append((lam.copy(), np.copy(angle)))
            return response(lam, angle)

        return respond

    source = SimpleNamespace(
        sample=model.sample,
        response_d=recording(model.response_d),
        response_g=recording(model.response_g),
    )
    schedule = SettingsSchedule(pairs=pairs)
    child = np.random.SeedSequence(17)
    code = harness._generate_block(source, schedule, None, child, m)
    idx = code >> 2
    d, g = _kernels.trial_outcomes(code)
    # the same substream, drawn in the block's order: one lane per trial,
    # whose top bits are the pair (no lanes for one pair), then lam
    rng = np.random.default_rng(np.random.SeedSequence(17))
    if len(pairs) > 1:
        words = rng.bit_generator.random_raw(-(-m // 4))
        want = lane_oracle(words, m) >> (17 - len(pairs).bit_length())
        assert np.array_equal(idx, want)
    else:
        assert not idx.any()
    lam = model.sample(rng, m)
    expected_d = np.empty(m, dtype=np.int8)
    expected_g = np.empty(m, dtype=np.int8)
    for p, (delta, gamma) in enumerate(pairs):
        mask = idx == p
        if not mask.any():
            continue
        expected_d[mask] = model.response_d(lam[mask], delta)
        expected_g[mask] = model.response_g(lam[mask], gamma)
    assert np.array_equal(d, expected_d)
    assert np.array_equal(g, expected_g)
    # exactly two response calls, d then g, each wing seeing its own angles
    assert len(seen) == 2
    for (seen_lam, seen_angle), angles in zip(seen, zip(*pairs)):
        assert np.array_equal(seen_lam, lam)
        if len(pairs) == 1:
            assert seen_angle.shape == () and seen_angle == angles[0]
        else:
            assert np.array_equal(seen_angle, np.array(angles)[idx])


class TestTabulate:
    def test_counts_sum_to_n(self):
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        log = run_trials(SINGLET, schedule, 12_345, seed=2)
        counts = tabulate(log)
        assert counts.counts.sum() == 12_345
        per_pair = counts.counts.sum(axis=1)
        assert np.array_equal(per_pair, np.bincount(log.pair_index, minlength=4))

    def test_equal_angle_singlet_has_no_same_sign_counts(self):
        log = run_trials(SINGLET, equal_angle_schedule(0.7), 1000, seed=4)
        counts = tabulate(log)
        assert counts.counts[0, 0] == 0  # (+,+)
        assert counts.counts[0, 3] == 0  # (-,-)

    def test_empty_log(self):
        log = TrialLog(
            pairs=((0.0, 0.0),),
            code=np.zeros(0, dtype=np.uint8),
            source_description="empty",
        )
        assert np.all(tabulate(log).counts == 0)


class TestAnalyzeChsh:
    def test_all_plus_plus(self):
        counts = EmpiricalSource(
            chsh_schedule(*SINGLET_CHSH_ANGLES).pairs,
            np.array([[10, 0, 0, 0]] * 4),
        )
        analysis = analyze_chsh(counts)
        assert all(p.e == 1.0 for p in analysis.per_pair)
        assert analysis.s_mean == 2.0
        assert analysis.s_std_error == 0.0
        assert not analysis.violated_2sigma

    def test_simulated_singlet_hits_quantum_value(self):
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        log = run_trials(SINGLET, schedule, 1_000_000, seed=8)
        analysis = analyze_chsh(tabulate(log))
        assert abs(analysis.s_mean - TWO_SQRT2) <= 5 * analysis.s_std_error
        assert analysis.violated_5sigma

    def test_simulated_sign_model_respects_bound(self):
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        log = run_trials(sign_model(), schedule, 1_000_000, seed=9)
        analysis = analyze_chsh(tabulate(log))
        assert abs(analysis.s_mean) <= 2.0 + 5 * analysis.s_std_error
        assert not analysis.violated_5sigma

    def test_empty_pair_error_names_pair(self):
        counts = EmpiricalSource(
            chsh_schedule(*SINGLET_CHSH_ANGLES).pairs,
            np.array([[10, 0, 0, 0]] * 3 + [[0, 0, 0, 0]]),
        )
        with pytest.raises(ValueError, match="d'g'"):
            analyze_chsh(counts)

    def test_short_table_raises(self):
        # row i is role PAIR_LABELS[i]; a missing fourth row is an error,
        # not an S of three terms
        counts = EmpiricalSource(
            chsh_schedule(*SINGLET_CHSH_ANGLES).pairs[:3],
            np.array([[10, 0, 0, 0]] * 3),
        )
        with pytest.raises(bellsim.UsageError, match="needs 4 .* got 3"):
            analyze_chsh(counts)

    def test_extra_pairs_raise(self):
        # extra pairs used to be dropped and S scored from the first four
        pairs = chsh_schedule(*SINGLET_CHSH_ANGLES).pairs
        pairs += tuple((0.1 * p, 0.2) for p in range(4))
        log = run_trials(SINGLET, SettingsSchedule(pairs=pairs), 1000, seed=1)
        with pytest.raises(bellsim.UsageError, match="needs 4 .* got 8"):
            analyze_chsh(tabulate(log))

    def test_variance_formula_matches_sample_variance(self):
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        log = run_trials(SINGLET, schedule, 100_000, seed=11)
        analysis = analyze_chsh(tabulate(log))
        products = (log.outcome_d * log.outcome_g).astype(np.float64)
        for i, pair in enumerate(analysis.per_pair):
            sample_var = products[log.pair_index == i].var(ddof=1)
            formula_var = pair.std_error**2 * pair.n
            assert abs(formula_var - sample_var) <= 0.1 * sample_var

    def test_per_pair_consistency_over_seeds(self):
        # 20 independent runs: every per-pair estimate within 5 sigma of the
        # closed form, allowing a single excursion across all checks
        schedule = chsh_schedule(*SINGLET_CHSH_ANGLES)
        delta, delta_prime, gamma, gamma_prime = SINGLET_CHSH_ANGLES
        expected = {
            "dg": closed_form_correlation(SINGLET.kind, delta, gamma),
            "dg'": closed_form_correlation(SINGLET.kind, delta, gamma_prime),
            "d'g": closed_form_correlation(SINGLET.kind, delta_prime, gamma),
            "d'g'": closed_form_correlation(SINGLET.kind, delta_prime, gamma_prime),
        }
        excursions = 0
        for seed in range(20):
            analysis = analyze_chsh(tabulate(run_trials(SINGLET, schedule, 50_000, seed=seed)))
            for pair in analysis.per_pair:
                if abs(pair.e - expected[pair.label]) > 5 * pair.std_error:
                    excursions += 1
        assert excursions <= 1


class TestMaximizeChsh:
    @pytest.mark.parametrize("kind", list(StateKind))
    def test_reaches_tsirelson_value(self, kind):
        angles, s_star = maximize_chsh(kind)
        assert abs(s_star - TWO_SQRT2) <= 1e-6
        # returned angles reproduce the value through the closed form
        delta, delta_prime, gamma, gamma_prime = angles
        s = (
            closed_form_correlation(kind, delta, gamma)
            + closed_form_correlation(kind, delta, gamma_prime)
            + closed_form_correlation(kind, delta_prime, gamma)
            - closed_form_correlation(kind, delta_prime, gamma_prime)
        )
        assert_allclose(s, s_star, atol=1e-12)
        assert s > 0

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_never_exceeds_ceiling(self, kind):
        _, s_star = maximize_chsh(kind, coarse_step_deg=12.0)
        assert s_star <= TWO_SQRT2 + 1e-6

    def test_collapsed_settings_give_two(self):
        from bellsim.inequalities import QuantumClosedFormSource, chsh_s

        source = QuantumClosedFormSource(StateKind.SPIN_ANTICORRELATED)
        assert_allclose(abs(chsh_s(source, 0.4, 0.4, 0.4, 0.4)), 2.0, atol=1e-12)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            maximize_chsh(StateKind.SPIN_ANTICORRELATED, coarse_step_deg=20.0)

    @pytest.mark.parametrize("step", [0.25, 0.0])
    def test_step_below_the_floor_raises(self, step):
        with pytest.raises(ValueError, match=r"\[0\.5, 15\]"):
            maximize_chsh(StateKind.SPIN_ANTICORRELATED, coarse_step_deg=step)


class TestWignerScan:
    def test_17_step_scan(self):
        points = wigner_scan(0.0, math.pi / 2, 17)
        assert len(points) == 17
        interior = points[1:-1]
        assert all(p.margin > 0 for p in interior)
        best = max(points, key=lambda p: p.margin)
        assert_allclose(best.theta2, math.pi / 4, atol=math.pi / 2 / 16 + 1e-12)

    def test_boundary_values(self):
        points = wigner_scan(0.0, math.pi / 2, 19)
        first = points[0]
        assert_allclose(first.lhs, 0.25, atol=1e-12)
        assert_allclose(first.rhs, 0.25, atol=1e-12)
        assert abs(first.margin) <= 1e-12

    def test_peak_margin_value(self):
        points = wigner_scan(0.0, math.pi / 2, 17)
        mid = points[8]
        assert_allclose(mid.theta2, math.pi / 4, atol=1e-12)
        assert_allclose(mid.margin, 0.10355339059327379, atol=1e-12)

    def test_margin_matches_trig_formula(self):
        # margin(t) = (sin t + cos t - 1)/4 for the default singlet scan
        for p in wigner_scan(0.0, math.pi / 2, 31):
            expected = (math.sin(p.theta2) + math.cos(p.theta2) - 1.0) / 4.0
            assert_allclose(p.margin, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_points_equal_scalar_checks(self, kind):
        # the broadcast scan reads exactly what wigner_check reads point by point
        source = QuantumBornSource(make_state(kind))
        theta1, theta3 = -0.5, 3.5
        for p in wigner_scan(theta1, theta3, 101, kind):
            report = wigner_check(source, theta1, p.theta2, theta3, kind.sign)
            assert (p.lhs, p.rhs, p.margin) == (report.lhs, report.bound, report.margin)
            assert type(p.lhs) is float and type(p.margin) is float

    def test_step_validation(self):
        with pytest.raises(ValueError):
            wigner_scan(0.0, math.pi / 2, 2)


NOT_FINITE = "analyzer angle must be finite"


def _closed_form():
    return QuantumClosedFormSource(StateKind.SPIN_ANTICORRELATED)


def _empty_pair_counts():
    counts = np.full((4, 4), 5)
    counts[2] = 0
    return EmpiricalSource(chsh_schedule(*SINGLET_CHSH_ANGLES).pairs, counts)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: run_trials(SINGLET, equal_angle_schedule(), 0, seed=0),
         "trials must be >= 1"),
        (lambda: lhv.estimate_correlation(sign_model(), 0.0, 0.0, 0, seed=0),
         "trials must be >= 1"),
        (lambda: run_trials(SINGLET, equal_angle_schedule(), 10, seed=-1),
         "seed must be >= 0"),
        (lambda: lhv.estimate_correlation(sign_model(), 0.0, 0.0, 10, seed=-1),
         "seed must be >= 0"),
        (lambda: lhv.quadrature_correlation(sign_model(), 0.0, 0.0, nodes=999),
         "nodes must be >= 1000"),
        (lambda: wigner_scan(0.0, math.pi / 2, 2), "steps must be >= 3"),
        (lambda: maximize_chsh(StateKind.SPIN_ANTICORRELATED, coarse_step_deg=16.0),
         "coarse-step must be in [0.5, 15] degrees"),
        (lambda: analyze_chsh(_empty_pair_counts()),
         "no trials recorded for settings pair \"d'g\""),
        (lambda: run_trials(SINGLET, equal_angle_schedule(math.nan), 10, seed=0),
         NOT_FINITE),
        (lambda: run_trials(sign_model(), equal_angle_schedule(math.inf), 10, seed=0),
         NOT_FINITE),
        (lambda: lhv.estimate_correlation(sign_model(), math.nan, 0.0, 10, seed=0),
         NOT_FINITE),
        (lambda: lhv.quadrature_correlation(sign_model(), 0.0, -math.inf),
         NOT_FINITE),
        (lambda: joint_distribution(SINGLET, 0.0, math.nan), NOT_FINITE),
        (lambda: wigner_scan(math.nan, math.pi / 2, 3), NOT_FINITE),
        (lambda: closed_form_correlation(StateKind.SPIN_CORRELATED, math.nan, 0.0),
         NOT_FINITE),
        (lambda: closed_form_correlation(
            StateKind.PHOTON_CORRELATED, 0.0, np.array([0.5, math.inf])),
         NOT_FINITE),
        (lambda: chsh_d4(_closed_form(), math.nan, 0.0, 1.0, 2.0), NOT_FINITE),
        (lambda: bell_d1(_closed_form(), math.inf, 0.0, 1.0, SINGLET.kind.sign),
         NOT_FINITE),
    ],
    ids=[
        "run_trials", "estimate_correlation", "run_trials_seed",
        "estimate_correlation_seed", "quadrature_correlation",
        "wigner_scan", "maximize_chsh", "analyze_chsh",
        "run_trials_angle", "lhv_run_trials_angle", "estimate_correlation_angle",
        "quadrature_correlation_angle", "joint_distribution_angle",
        "wigner_scan_angle", "closed_form_correlation_angle",
        "closed_form_correlation_grid_angle", "chsh_d4_angle", "bell_d1_angle",
    ],
)
def test_input_bounds_raise_usage_error(call, message):
    # each bound is stated once, in the library, in the words the CLI prints
    with pytest.raises(bellsim.UsageError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert str(info.value) == message


@pytest.mark.parametrize("seed", range(6))
def test_every_schedule_angle_is_checked(seed):
    # one trial over 8 pairs: whichever pair it draws, the nan angle of the
    # last pair raises, in an LHV run as in a Born run
    pairs = tuple((0.3 * p, -0.2 * p) for p in range(7)) + ((math.nan, 0.0),)
    schedule = SettingsSchedule(pairs=pairs)
    for source in (sign_model(), quantum_mimic_attempt(), SINGLET):
        with pytest.raises(bellsim.UsageError, match=NOT_FINITE):
            run_trials(source, schedule, 1, seed)
