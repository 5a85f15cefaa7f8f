import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellsim import _kernels
from bellsim.inequalities import (
    CorrelationSign,
    CorrelationSource,
    EmpiricalSource,
    InequalityReport,
    JointUnavailableError,
    LhvSource,
    QuantumBornSource,
    QuantumClosedFormSource,
    SextetMixtureSource,
    Sextet,
    bell_d1,
    chsh_d3,
    chsh_d4,
    chsh_s,
    chsh_variants,
    enumerate_quartets,
    enumerate_sextets,
    quartet_mixture_s,
    wigner_check,
    wigner_terms,
)
from bellsim.lhv import (
    LhvModel,
    UnboundedSupportError,
    builtin_models,
    quadrature_correlation,
    sign_model,
)
from bellsim.qstate import StateKind, joint_correlation, make_state

SQRT2 = math.sqrt(2.0)
TWO_PI = 2 * math.pi

SINGLET_CF = QuantumClosedFormSource(StateKind.SPIN_ANTICORRELATED)
ANTI = CorrelationSign.ANTICORRELATED

# quartet table as published: outcome rows (d, g, d', g') per column, then S
EXPECTED_D = (1, 1, 1, 1, 1, 1, 1, 1, -1, -1, -1, -1, -1, -1, -1, -1)
EXPECTED_G = (1, 1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1)
EXPECTED_DP = (1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1)
EXPECTED_GP = (1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1)
EXPECTED_S = (2, 2, 2, -2, -2, -2, 2, -2, -2, 2, -2, -2, -2, 2, 2, 2)


def prob(joints, d, g):
    """P(D -> d, G -> g), read from its column (pp, pm, mp, mm) of a joints row."""
    return joints[_kernels.row_code(0, d < 0, g < 0)]


class SawtoothSource(CorrelationSource):
    """Exact correlations of the strictly anticorrelated threshold model."""

    def correlation(self, delta, gamma):
        t = abs(gamma - delta) % TWO_PI
        t = min(t, TWO_PI - t)
        return -1.0 + 2.0 * t / math.pi


def correlated_sign_model():
    """Sign model variant with equal responses on both wings (strictly
    correlated at equal angles)."""

    def respond(lam, angle):
        return np.where(np.cos(lam - angle) >= 0.0, 1, -1).astype(np.int8)

    return LhvModel(
        name="sign_model_correlated",
        pdf=lambda lam: np.full(np.shape(lam), 1.0 / TWO_PI),
        sample=lambda rng, n: rng.uniform(0.0, TWO_PI, n),
        response_d=respond,
        response_g=respond,
        support=(0.0, TWO_PI),
    )


class TestQuartets:
    def test_table_fidelity(self):
        quartets = enumerate_quartets()
        assert len(quartets) == 16
        assert tuple(q.d_delta for q in quartets) == EXPECTED_D
        assert tuple(q.g_gamma for q in quartets) == EXPECTED_G
        assert tuple(q.d_delta_prime for q in quartets) == EXPECTED_DP
        assert tuple(q.g_gamma_prime for q in quartets) == EXPECTED_GP
        assert tuple(q.s_value for q in quartets) == EXPECTED_S

    def test_every_s_is_plus_minus_two(self):
        values = [q.s_value for q in enumerate_quartets()]
        assert set(values) == {2, -2}
        assert values.count(2) == 8 and values.count(-2) == 8

    def test_exhaustive(self):
        seen = {
            (q.d_delta, q.g_gamma, q.d_delta_prime, q.g_gamma_prime)
            for q in enumerate_quartets()
        }
        assert seen == set(itertools.product((1, -1), repeat=4))

    def test_named_columns(self):
        quartets = enumerate_quartets()
        assert (quartets[0].d_delta, quartets[0].g_gamma) == (1, 1)
        assert quartets[0].s_value == 2
        assert quartets[3].s_value == -2  # (+1, +1, -1, -1)
        assert quartets[15].s_value == 2  # (-1, -1, -1, -1)


class TestQuartetMixture:
    def test_point_masses(self):
        for i, quartet in enumerate(enumerate_quartets()):
            weights = np.zeros(16)
            weights[i] = 1.0
            assert quartet_mixture_s(weights) == float(quartet.s_value)

    def test_uniform_is_zero(self):
        assert quartet_mixture_s(np.full(16, 1 / 16)) == 0.0

    def test_random_mixtures_bounded(self):
        rng = np.random.default_rng(17)
        weights = rng.dirichlet(np.ones(16), size=10_000)
        for w in weights:
            assert abs(quartet_mixture_s(w)) <= 2.0 + 1e-12

    def test_nan_weights_rejected(self):
        weights = np.full(16, 1 / 16)
        weights[3] = math.nan
        with pytest.raises(ValueError):
            quartet_mixture_s(weights)
        with pytest.raises(ValueError):
            SextetMixtureSource(weights[:8] * 2, ANTI, (0.0, 1.0, 2.0))

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            quartet_mixture_s(np.full(16, 0.5))
        with pytest.raises(ValueError):
            quartet_mixture_s(np.full(8, 1 / 8))
        bad = np.full(16, 1 / 16)
        bad[0] = -1 / 16
        bad[1] = 3 / 16
        with pytest.raises(ValueError):
            quartet_mixture_s(bad)


class TestSextets:
    @pytest.mark.parametrize("sign", list(CorrelationSign))
    def test_count_and_constraint(self, sign):
        sextets = enumerate_sextets(sign)
        assert len(sextets) == 8
        factor = -1 if sign is CorrelationSign.ANTICORRELATED else 1
        for s in sextets:
            assert s.g == tuple(factor * dj for dj in s.d)
        assert {s.d for s in sextets} == set(itertools.product((1, -1), repeat=3))

    def test_examples(self):
        anti = enumerate_sextets(CorrelationSign.ANTICORRELATED)
        assert anti[0].d == (1, 1, 1) and anti[0].g == (-1, -1, -1)
        corr = enumerate_sextets(CorrelationSign.CORRELATED)
        by_d = {s.d: s for s in corr}
        assert by_d[(1, -1, 1)].g == (1, -1, 1)

    @pytest.mark.parametrize("sign", list(CorrelationSign))
    def test_rejects_inconsistent_wings(self, sign):
        with pytest.raises(ValueError, match="constraint"):
            Sextet(d=(1, 1, 1), g=(1, -1, 1), sign=sign)


class TestSextetMixtureProbabilities:
    THETAS = (0.1, 0.9, 2.0)

    def test_decomposition_identities(self):
        # each probability wigner_check reads is exactly the weight sum of
        # its two matching sextets, the same d-patterns for both signs; the
        # lhs pair splits between the rhs sets
        rng = np.random.default_rng(29)
        t1, t2, t3 = self.THETAS
        lhs_ds = [(1, -1, -1), (-1, -1, -1)]
        rhs1_ds = [(1, -1, 1), (1, -1, -1)]
        rhs2_ds = [(-1, 1, -1), (-1, -1, -1)]
        assert set(lhs_ds) <= set(rhs1_ds) | set(rhs2_ds)
        for sign in CorrelationSign:
            index = {s.d: i for i, s in enumerate(enumerate_sextets(sign))}
            g = -sign.factor
            for _ in range(200):
                w = rng.dirichlet(np.ones(8))
                source = SextetMixtureSource(w, sign, self.THETAS)
                lhs = prob(source.joints(t3, t2), -1, g)
                rhs1 = prob(source.joints(t1, t2), 1, g)
                rhs2 = prob(source.joints(t1, t3), -1, g)
                assert_allclose(lhs, sum(w[index[d]] for d in lhs_ds), atol=1e-15)
                assert_allclose(rhs1, sum(w[index[d]] for d in rhs1_ds), atol=1e-15)
                assert_allclose(rhs2, sum(w[index[d]] for d in rhs2_ds), atol=1e-15)
                report = wigner_check(source, *self.THETAS, sign)
                assert_allclose(report.lhs, lhs, atol=1e-15)
                assert_allclose(report.bound, rhs1 + rhs2, atol=1e-15)

    def test_uniform_weights(self):
        for sign in CorrelationSign:
            source = SextetMixtureSource(np.full(8, 1 / 8), sign, self.THETAS)
            report = wigner_check(source, *self.THETAS, sign)
            assert_allclose(report.lhs, 0.25, atol=1e-15)
            assert_allclose(report.bound, 0.5, atol=1e-15)

    def test_point_mass_membership(self):
        weights = np.zeros(8)
        weights[1] = 1.0  # d = (+1, +1, -1) in enumeration order
        for sign in CorrelationSign:
            source = SextetMixtureSource(weights, sign, self.THETAS)
            report = wigner_check(source, *self.THETAS, sign)
            # d=(+,+,-): d1=+1 but d2=+1, so no pattern matches
            assert report.lhs == 0.0
            assert report.bound == 0.0

    def test_mixtures_never_violate(self):
        rng = np.random.default_rng(41)
        for sign in CorrelationSign:
            for w in rng.dirichlet(np.ones(8), size=2000):
                source = SextetMixtureSource(w, sign, self.THETAS)
                assert wigner_check(source, *self.THETAS, sign).margin <= 1e-12


class TestBellD1:
    def test_quantum_counterexample(self):
        report = bell_d1(
            SINGLET_CF, 0.0, math.pi / 2, 3 * math.pi / 4, CorrelationSign.ANTICORRELATED
        )
        assert_allclose(report.lhs, SQRT2, atol=1e-12)
        assert report.bound == 1.0
        assert report.violated

    def test_correlated_counterexample(self):
        source = QuantumClosedFormSource(StateKind.SPIN_CORRELATED)
        report = bell_d1(
            source, 0.0, math.pi / 2, 3 * math.pi / 4, CorrelationSign.CORRELATED
        )
        assert_allclose(report.lhs, SQRT2, atol=1e-12)
        assert report.violated

    def test_sign_model_respects_bound(self):
        source = LhvSource(sign_model(), nodes=4096)
        report = bell_d1(
            source, 0.0, math.pi / 2, 3 * math.pi / 4, CorrelationSign.ANTICORRELATED
        )
        assert report.lhs <= 1.0 + 1e-6
        assert not report.violated

    def test_sawtooth_sweep_stays_bounded(self):
        source = SawtoothSource()
        rng = np.random.default_rng(53)
        for _ in range(10_000):
            delta, gamma, gamma_prime = rng.uniform(-7, 7, 3)
            report = bell_d1(
                source, delta, gamma, gamma_prime, CorrelationSign.ANTICORRELATED
            )
            assert report.lhs <= 1.0 + 1e-12

    def test_correlated_lhv_respects_bound(self):
        source = LhvSource(correlated_sign_model(), nodes=4096)
        rng = np.random.default_rng(59)
        for _ in range(50):
            delta, gamma, gamma_prime = rng.uniform(-7, 7, 3)
            report = bell_d1(source, delta, gamma, gamma_prime, CorrelationSign.CORRELATED)
            assert report.lhs <= 1.0 + 1e-6

    def test_degenerate_equal_gammas(self):
        report = bell_d1(SINGLET_CF, 0.3, 1.1, 1.1, CorrelationSign.ANTICORRELATED)
        assert_allclose(report.lhs, 1.0, atol=1e-12)
        assert_allclose(report.margin, 0.0, atol=1e-12)
        assert not report.violated


class TestChsh:
    def test_quantum_maximum_at_canonical_angles(self):
        s = chsh_s(SINGLET_CF, 0.0, -math.pi / 2, 3 * math.pi / 4, -3 * math.pi / 4)
        assert_allclose(s, 2 * SQRT2, atol=1e-12)

    def test_canonical_angles_are_global_maximum(self):
        # independent dense grid search over all four angles
        angles = np.linspace(0.0, TWO_PI, 48, endpoint=False)
        c = -np.cos(angles[None, :] - angles[:, None])
        s = (
            c[:, None, :, None]
            + c[:, None, None, :]
            + c[None, :, :, None]
            - c[None, :, None, :]
        )
        grid_max = np.max(np.abs(s))
        assert grid_max <= 2 * SQRT2 + 1e-9
        assert grid_max >= 2 * SQRT2 - 0.05

    def test_collapsed_settings(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            delta, gamma = rng.uniform(-7, 7, 2)
            s = chsh_s(SINGLET_CF, delta, delta, gamma, gamma)
            assert_allclose(s, 2 * SINGLET_CF.correlation(delta, gamma), atol=1e-12)
            assert -2.0 - 1e-12 <= s <= 2.0 + 1e-12

    def test_d4_quantum_margin(self):
        report = chsh_d4(SINGLET_CF, 0.0, -math.pi / 2, 3 * math.pi / 4, -3 * math.pi / 4)
        assert report.bound == 2.0
        assert_allclose(report.margin, 2 * SQRT2 - 2.0, atol=1e-9)
        assert report.violated

    def test_d4_sign_model_not_violated(self):
        source = LhvSource(sign_model(), nodes=4096)
        report = chsh_d4(source, 0.0, -math.pi / 2, 3 * math.pi / 4, -3 * math.pi / 4)
        assert report.lhs <= 2.0 + 1e-6
        assert not report.violated

    def test_d4_empirical_simulated_singlet(self):
        from bellsim import harness

        state = make_state(StateKind.SPIN_ANTICORRELATED)
        schedule = harness.chsh_schedule(*harness.SINGLET_CHSH_ANGLES)
        log = harness.run_trials(state, schedule, 1_000_000, seed=101)
        counts = harness.tabulate(log)
        analysis = harness.analyze_chsh(counts)
        report = chsh_d4(counts, *harness.SINGLET_CHSH_ANGLES)
        assert report.violated
        assert abs(report.margin - (2 * SQRT2 - 2.0)) <= 5 * analysis.s_std_error

    def test_d3_hand_evaluation(self):
        delta, gamma, gamma_prime, delta_prime = 0.0, math.pi / 2, 3 * math.pi / 4, math.pi / 4
        report = chsh_d3(SINGLET_CF, delta, delta_prime, gamma, gamma_prime)
        expected = (
            abs(-math.cos(gamma - delta) + math.cos(gamma_prime - delta))
            + -math.cos(gamma_prime - delta_prime)
            + -math.cos(gamma - delta_prime)
        )
        assert_allclose(report.lhs, expected, atol=1e-12)
        assert report.bound == 2.0

    def test_d3_sawtooth_sweep(self):
        source = SawtoothSource()
        rng = np.random.default_rng(67)
        for _ in range(10_000):
            delta, delta_prime, gamma, gamma_prime = rng.uniform(-7, 7, 4)
            report = chsh_d3(source, delta, delta_prime, gamma, gamma_prime)
            assert report.lhs <= 2.0 + 1e-12

    def test_d3_quadrature_sweep(self):
        source = LhvSource(sign_model(), nodes=2048)
        rng = np.random.default_rng(71)
        for _ in range(100):
            delta, delta_prime, gamma, gamma_prime = rng.uniform(-7, 7, 4)
            report = chsh_d3(source, delta, delta_prime, gamma, gamma_prime)
            assert report.lhs <= 2.0 + 1e-6

    def test_d3_all_angles_equal(self):
        report = chsh_d3(SINGLET_CF, 0.9, 0.9, 0.9, 0.9)
        assert_allclose(report.lhs, -2.0, atol=1e-12)
        assert not report.violated


def quartet_products():
    """Outcome products (d*g, d*g', d'*g, d'*g') of the 16 quartets, in role order."""
    return np.array(
        [
            [q.d_delta * g for g in (q.g_gamma, q.g_gamma_prime)]
            + [q.d_delta_prime * g for g in (q.g_gamma, q.g_gamma_prime)]
            for q in enumerate_quartets()
        ]
    )


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestChshVariants:
    @given(st.lists(st.floats(-1e300, 1e300), min_size=4, max_size=4))
    def test_each_variant_is_its_signed_sum(self, e):
        e0, e1, e2, e3 = e
        s = chsh_variants(e)
        assert s.shape == (4,)
        assert same_bits(s[0], -e0 + e1 + e2 + e3)
        assert same_bits(s[1], e0 - e1 + e2 + e3)
        assert same_bits(s[2], e0 + e1 - e2 + e3)
        # the expression every S reader spelled out before chsh_variants
        assert same_bits(s[3], e0 + e1 + e2 - e3)

    def test_broadcasts_over_leading_axes(self):
        e = np.random.default_rng(3).uniform(-1, 1, (5, 3, 4))
        s = chsh_variants(e)
        assert s.shape == (5, 3, 4)
        assert np.array_equal(s[2, 1], chsh_variants(e[2, 1]))

    def test_integer_input_gives_integer_sums(self):
        s = chsh_variants(np.array([1, -1, 1, 1]))
        assert s.dtype.kind == "i"
        assert s.tolist() == [0, 4, 0, 0]

    def test_every_variant_of_every_quartet_is_plus_minus_two(self):
        s = chsh_variants(quartet_products())
        assert s.shape == (16, 4)
        assert np.all(np.abs(s) == 2)
        assert s[:, 3].tolist() == list(EXPECTED_S)

    def test_eight_inequalities_hold_for_quartet_mixtures(self):
        # Peres' route: a mixture of quartets has <S_k> = sum w_q S_k(q), and
        # every S_k(q) is +-2, so all eight bounds |<S_k>| <= 2 hold
        weights = np.random.default_rng(19).dirichlet(np.ones(16), size=10_000)
        mixed = weights @ chsh_variants(quartet_products())
        assert np.all(np.abs(mixed) <= 2.0 + 1e-12)

    def test_d3_matches_the_displayed_form(self):
        rng = np.random.default_rng(23)
        for source in (SINGLET_CF, SawtoothSource()):
            for _ in range(2000):
                delta, delta_prime, gamma, gamma_prime = rng.uniform(-7, 7, 4)
                e_dg = source.correlation(delta, gamma)
                e_dgp = source.correlation(delta, gamma_prime)
                e_dpgp = source.correlation(delta_prime, gamma_prime)
                e_dpg = source.correlation(delta_prime, gamma)
                old = abs(e_dg - e_dgp) + e_dpgp + e_dpg
                report = chsh_d3(source, delta, delta_prime, gamma, gamma_prime)
                assert abs(report.lhs - old) <= 1e-15


class TestInequalityReport:
    def test_str_format(self):
        assert str(InequalityReport("chsh_d4", 2 * SQRT2, 2.0)) == (
            "chsh_d4: lhs=2.828427 bound=2.000000 (VIOLATED)"
        )
        assert str(InequalityReport("bell_d1", 0.5, 1.0)) == (
            "bell_d1: lhs=0.500000 bound=1.000000 (satisfied)"
        )

    def test_margin_and_violated_follow_lhs_and_bound(self):
        report = InequalityReport("wigner", 0.75, 0.5)
        assert report.margin == 0.25 and report.violated
        # analytic sources count as violating only beyond the tolerance
        assert not InequalityReport("wigner", 0.5 + 1e-10, 0.5).violated

    def test_joint_error_names_the_source_class(self):
        with pytest.raises(
            JointUnavailableError,
            match="^SawtoothSource provides no joint outcome probabilities$",
        ):
            SawtoothSource().joints(0.0, 1.0)


class TestWigner:
    def test_quantum_values_at_45(self):
        t1, t2, t3 = 0.0, math.pi / 4, math.pi / 2
        report = wigner_check(SINGLET_CF, t1, t2, t3, ANTI)
        assert_allclose(report.lhs, 0.42677669529663687, atol=1e-12)
        assert_allclose(report.bound, 0.3232233047033632, atol=1e-12)
        assert_allclose(report.margin, 0.10355339059327379, atol=1e-12)
        assert report.violated

    def test_born_source_agrees(self):
        source = QuantumBornSource(make_state(StateKind.SPIN_ANTICORRELATED))
        report = wigner_check(source, 0.0, math.pi / 4, math.pi / 2, ANTI)
        assert_allclose(report.margin, 0.10355339059327379, atol=1e-12)

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_closed_form_terms_broadcast(self, kind):
        # the closed-form joints broadcast over theta2, each point bit for
        # bit the scalar check and close to the Born joints
        source = QuantumClosedFormSource(kind)
        theta2 = np.linspace(-1.0, 4.0, 41)
        lhs, rhs = wigner_terms(source, 0.3, theta2, 1.9, kind.sign)
        for t, l, r in zip(theta2, lhs, rhs):
            report = wigner_check(source, 0.3, float(t), 1.9, kind.sign)
            assert (report.lhs, report.bound) == (l, r)
        assert_allclose(source.joints(0.3, theta2).sum(axis=-1), 1.0, atol=1e-15)
        born = QuantumBornSource(make_state(kind))
        assert_allclose(lhs, wigner_terms(born, 0.3, theta2, 1.9, kind.sign)[0],
                        atol=1e-12)

    def test_violated_across_open_interval(self):
        for deg in range(5, 90, 5):
            report = wigner_check(SINGLET_CF, 0.0, math.radians(deg), math.pi / 2, ANTI)
            assert report.violated, f"no violation at {deg} degrees"

    def test_sextet_mixtures_sound(self):
        rng = np.random.default_rng(73)
        thetas = (0.0, math.pi / 4, math.pi / 2)
        for sign in CorrelationSign:
            for w in rng.dirichlet(np.ones(8), size=2000):
                source = SextetMixtureSource(w, sign, thetas)
                assert wigner_check(source, *thetas, sign).margin <= 1e-12

    def test_source_without_joint_probabilities(self):
        with pytest.raises(JointUnavailableError):
            wigner_check(SawtoothSource(), 0.0, 0.5, 1.0, ANTI)

    def test_mixture_source_rejects_unknown_angle(self):
        source = SextetMixtureSource(
            np.full(8, 1 / 8), CorrelationSign.ANTICORRELATED, (0.0, 1.0, 2.0)
        )
        with pytest.raises(KeyError):
            source.joints(0.0, 3.0)


class TestLhvSource:
    # correlation and joints share one node evaluation, lhv._quadrature, so
    # both refuse what quadrature cannot do, and what a model must not
    # return, with the same errors
    @pytest.mark.parametrize("method", ["correlation", "joints"])
    def test_unbounded_model_is_refused(self, method):
        unbounded = LhvModel(
            name="gaussian_threshold",
            pdf=lambda lam: np.exp(-0.5 * lam**2) / math.sqrt(2 * math.pi),
            sample=lambda rng, n: rng.normal(size=n),
            response_d=lambda lam, angle: np.where(lam >= angle, 1, -1),
            response_g=lambda lam, angle: np.where(lam >= angle, -1, 1),
            support=None,
        )
        with pytest.raises(UnboundedSupportError, match="unbounded support"):
            getattr(LhvSource(unbounded), method)(0.0, 1.0)

    @pytest.mark.parametrize("method", ["correlation", "joints"])
    def test_node_floor(self, method):
        with pytest.raises(ValueError, match="nodes must be >= 1000"):
            getattr(LhvSource(sign_model(), nodes=999), method)(0.0, 1.0)

    @pytest.mark.parametrize("method", ["correlation", "joints"])
    @pytest.mark.parametrize("bad", [0, 255])
    def test_response_outside_plus_minus_one_is_refused(self, method, bad, bad_tail):
        # unchecked, a 255 tail reads E = 2.240 and joints that sum to 0.9951
        message = r"response of 'bad_tail' returned values outside \+-1"
        with pytest.raises(ValueError, match=message):
            getattr(LhvSource(bad_tail(bad)), method)(0.0, 0.0)

    @pytest.mark.parametrize("method", ["correlation", "joints"])
    @pytest.mark.parametrize("delta, gamma", [(math.nan, 0.0), (0.0, math.inf)])
    def test_non_finite_angle_is_refused(self, method, delta, gamma):
        with pytest.raises(ValueError, match="analyzer angle must be finite"):
            getattr(LhvSource(sign_model()), method)(delta, gamma)


class TestEmpiricalSource:
    def test_correlation_and_joint(self):
        pairs = [(0.0, 1.0), (0.0, 2.0)]
        counts = np.array([[10, 0, 0, 10], [0, 5, 5, 0]])
        source = EmpiricalSource(pairs, counts)
        assert source.correlation(0.0, 1.0) == 1.0
        assert source.correlation(0.0, 2.0) == -1.0
        assert source.joints(0.0, 1.0)[0] == 0.5

    def test_missing_pair_is_an_error(self):
        source = EmpiricalSource([(0.0, 1.0)], np.array([[1, 1, 1, 1]]))
        with pytest.raises(KeyError, match="no counts"):
            bell_d1(source, 0.0, 1.0, 2.0, CorrelationSign.ANTICORRELATED)

    def test_repeated_pairs_add_up(self):
        pairs = [(0.0, 1.0), (0.0, 1.0), (0.0, 2.0)]
        counts = np.array([[3, 1, 0, 0], [1, 0, 2, 1], [0, 5, 5, 0]])
        source = EmpiricalSource(pairs, counts)
        assert source.correlation(0.0, 1.0) == (4 + 1 - 1 - 2) / 8
        assert source.joints(0.0, 1.0).tolist() == [0.5, 0.125, 0.25, 0.125]

    def test_repeated_schedule_pairs_use_every_trial(self):
        from bellsim import harness

        # delta = delta' and gamma = gamma' put all 40000 trials on one pair
        schedule = harness.chsh_schedule(0.0, 0.0, math.pi / 4, math.pi / 4)
        state = make_state(StateKind.SPIN_ANTICORRELATED)
        source = harness.tabulate(harness.run_trials(state, schedule, 40_000, 1))
        n_pp, n_pm, n_mp, n_mm = source.counts.sum(axis=0)
        assert n_pp + n_pm + n_mp + n_mm == 40_000
        e = (n_pp + n_mm - n_pm - n_mp) / 40_000
        assert source.correlation(0.0, math.pi / 4) == e

    def test_zero_trial_pair_is_an_error(self):
        source = EmpiricalSource([(0.0, 1.0)], np.array([[0, 0, 0, 0]]))
        with pytest.raises(ValueError, match="zero trials"):
            source.correlation(0.0, 1.0)

    @pytest.mark.parametrize(
        "counts", [[[1, 1, 1, 1]], [[1, 1, 1], [1, 1, 1]], [1] * 8]
    )
    def test_shape_must_match_pairs(self, counts):
        with pytest.raises(ValueError, match="one .* row per pair"):
            EmpiricalSource([(0.0, 1.0), (0.0, 2.0)], counts)

    def test_negative_counts_are_an_error(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalSource([(0.0, 1.0)], [[3, -1, 0, 0]])

    @pytest.mark.parametrize(
        "row", [[1.5, 2.7, 0, 0], [math.nan, 1, 1, 1], [math.inf, 1, 1, 1]]
    )
    def test_non_integral_counts_are_an_error(self, row):
        # these were truncated to [1, 2, 0, 0], or cast to a negative count
        with pytest.raises(ValueError, match="finite integers"):
            EmpiricalSource([(0.0, 1.0)], [row])

    def test_integral_float_counts_are_accepted(self):
        source = EmpiricalSource([(0.0, 1.0)], [[10.0, 0.0, 2.0, 0.0]])
        assert source.counts.dtype == np.int64
        assert source.counts.tolist() == [[10, 0, 2, 0]]


@pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.name)
def test_lhv_source_joints_match_quadrature(model):
    source = LhvSource(model)
    angles = np.linspace(-math.pi, 2.0 * math.pi, 7) + 0.1
    for delta, gamma in itertools.product(angles, angles):
        joints = source.joints(delta, gamma)
        assert joints.shape == (4,)
        assert np.all(joints >= 0.0)
        assert abs(joints.sum() - 1.0) <= 1e-12
        assert abs(
            joint_correlation(joints) - quadrature_correlation(model, delta, gamma)
        ) <= 1e-12
