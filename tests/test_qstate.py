import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from bellsim.qstate import (
    CorrelationSign,
    EntangledState,
    ParticleKind,
    StateKind,
    _check_joints,
    analyzer_basis,
    closed_form_correlation,
    joint_correlation,
    joint_distribution,
    make_state,
)
from bellsim.inequalities import QuantumBornSource

SQRT_HALF = math.sqrt(0.5)

ALL_KINDS = list(StateKind)

# columns of a joints array
PP, PM, MP, MM = range(4)


def ref_joint(state, delta, gamma):
    """Independent Born oracle: explicit kron projectors, no shared code
    with the production 2x2 matrix path."""
    psi = state.amplitudes
    out = {}
    for x, ed in zip("pm", analyzer_basis(state.particle, delta)):
        for y, eg in zip("pm", analyzer_basis(state.particle, gamma)):
            proj = np.kron(np.outer(ed, ed), np.outer(eg, eg))
            out[x + y] = float(np.real(np.conj(psi) @ proj @ psi))
    return out


class TestMakeState:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            (StateKind.SPIN_CORRELATED, (SQRT_HALF, 0, 0, SQRT_HALF)),
            (StateKind.SPIN_ANTICORRELATED, (0, SQRT_HALF, -SQRT_HALF, 0)),
            (StateKind.PHOTON_CORRELATED, (SQRT_HALF, 0, 0, SQRT_HALF)),
            (StateKind.PHOTON_ANTICORRELATED, (0, SQRT_HALF, -SQRT_HALF, 0)),
        ],
    )
    def test_amplitudes(self, kind, expected):
        state = make_state(kind)
        assert_allclose(state.amplitudes, np.array(expected, dtype=complex))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_normalized_with_two_sqrt_half_terms(self, kind):
        amps = make_state(kind).amplitudes
        assert abs(np.sum(np.abs(amps) ** 2) - 1.0) <= 1e-12
        nonzero = np.abs(amps) > 0
        assert nonzero.sum() == 2
        assert_allclose(np.abs(amps[nonzero]), SQRT_HALF, atol=1e-15)

    def test_particle_kind(self):
        assert make_state(StateKind.SPIN_CORRELATED).particle is ParticleKind.SPIN_HALF
        assert make_state(StateKind.PHOTON_CORRELATED).particle is ParticleKind.PHOTON

    @pytest.mark.parametrize(
        "kind,particle,sign,angle_scale",
        [
            (StateKind.SPIN_ANTICORRELATED, ParticleKind.SPIN_HALF,
             CorrelationSign.ANTICORRELATED, 0.5),
            (StateKind.SPIN_CORRELATED, ParticleKind.SPIN_HALF,
             CorrelationSign.CORRELATED, 0.5),
            (StateKind.PHOTON_CORRELATED, ParticleKind.PHOTON,
             CorrelationSign.CORRELATED, 1.0),
            (StateKind.PHOTON_ANTICORRELATED, ParticleKind.PHOTON,
             CorrelationSign.ANTICORRELATED, 1.0),
        ],
    )
    def test_state_table(self, kind, particle, sign, angle_scale):
        assert kind.particle is particle
        assert kind.sign is sign
        assert particle.angle_scale == angle_scale
        assert make_state(kind).particle is particle

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            EntangledState(
                kind=StateKind.SPIN_CORRELATED,
                amplitudes=np.array([1.0, 0, 0, 1.0]),
            )

    @pytest.mark.parametrize("amplitudes", [[SQRT_HALF, SQRT_HALF], np.eye(4) / 2])
    def test_rejects_wrong_shape(self, amplitudes):
        with pytest.raises(ValueError, match="length-4"):
            EntangledState(kind=StateKind.SPIN_CORRELATED, amplitudes=amplitudes)

    def test_rejects_nan_amplitudes(self):
        with pytest.raises(ValueError, match="not normalized"):
            EntangledState(
                kind=StateKind.SPIN_ANTICORRELATED,
                amplitudes=np.array([math.nan, 0.0, 0.0, 0.0]),
            )

    def test_amplitudes_immutable(self):
        state = make_state(StateKind.SPIN_CORRELATED)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestAnalyzerBasis:
    def test_spin_identity(self):
        plus, minus = analyzer_basis(ParticleKind.SPIN_HALF, 0.0)
        assert_allclose(plus, [1.0, 0.0])
        assert_allclose(minus, [0.0, 1.0])

    def test_spin_pi_is_quarter_turn(self):
        plus, _ = analyzer_basis(ParticleKind.SPIN_HALF, math.pi)
        assert_allclose(plus, [0.0, 1.0], atol=1e-12)

    def test_photon_quarter_pi(self):
        plus, _ = analyzer_basis(ParticleKind.PHOTON, math.pi / 4)
        assert_allclose(plus, [SQRT_HALF, SQRT_HALF])

    @pytest.mark.parametrize("particle", list(ParticleKind))
    def test_orthonormal_right_handed(self, particle):
        rng = np.random.default_rng(11)
        for angle in rng.uniform(-10, 10, 200):
            plus, minus = analyzer_basis(particle, angle)
            assert_allclose(plus @ plus, 1.0, atol=1e-14)
            assert_allclose(minus @ minus, 1.0, atol=1e-14)
            assert_allclose(plus @ minus, 0.0, atol=1e-14)
            det = plus[0] * minus[1] - plus[1] * minus[0]
            assert_allclose(det, 1.0, atol=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            analyzer_basis(ParticleKind.PHOTON, math.inf)

    @pytest.mark.parametrize("particle", list(ParticleKind))
    def test_broadcast_matches_scalar(self, particle):
        angles = np.linspace(-7.0, 7.0, 29).reshape(29, 1)
        bases = analyzer_basis(particle, angles)
        assert bases.shape == (29, 1, 2, 2)
        for angle, basis in zip(angles[:, 0], bases[:, 0]):
            assert np.array_equal(basis, analyzer_basis(particle, float(angle)))


class TestJointDistribution:
    def test_singlet_equal_angles_strict(self):
        state = make_state(StateKind.SPIN_ANTICORRELATED)
        for theta in (0.0, 0.4, 2.0, -1.3):
            dist = joint_distribution(state, theta, theta)
            assert dist[PP] == 0.0
            assert dist[MM] == 0.0
            assert_allclose(dist[PM], 0.5, atol=1e-15)
            assert_allclose(dist[MP], 0.5, atol=1e-15)

    def test_singlet_quarter_offset(self):
        state = make_state(StateKind.SPIN_ANTICORRELATED)
        dist = joint_distribution(state, 0.0, math.pi / 2)
        # half the + marginal times sin^2(pi/4)
        assert_allclose(dist[PP], 0.25, atol=1e-12)

    def test_correlated_pi_offset_flips(self):
        state = make_state(StateKind.SPIN_CORRELATED)
        dist = joint_distribution(state, 0.7, 0.7 + math.pi)
        assert_allclose(dist[PP], 0.0, atol=1e-12)
        assert_allclose(dist[MM], 0.0, atol=1e-12)
        assert_allclose(dist[PM], 0.5, atol=1e-12)
        assert_allclose(dist[MP], 0.5, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_normalization_fuzz(self, kind):
        state = make_state(kind)
        rng = np.random.default_rng(23)
        deltas = rng.uniform(-2 * math.pi, 2 * math.pi, 10_000)
        gammas = rng.uniform(-2 * math.pi, 2 * math.pi, 10_000)
        for delta, gamma in zip(deltas, gammas):
            probs = joint_distribution(state, delta, gamma)
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_equal_angle_strictness(self, kind):
        state = make_state(kind)
        for theta in np.linspace(-3.0, 3.0, 25):
            dist = joint_distribution(state, theta, theta)
            if kind.sign is CorrelationSign.ANTICORRELATED:
                assert dist[PP] == 0.0 and dist[MM] == 0.0
            else:
                assert dist[PM] == 0.0 and dist[MP] == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_marginals_are_half(self, kind):
        state = make_state(kind)
        rng = np.random.default_rng(5)
        for _ in range(300):
            delta, gamma = rng.uniform(-7, 7, 2)
            dist = joint_distribution(state, delta, gamma)
            assert_allclose(dist[PP] + dist[PM], 0.5, atol=1e-12)
            assert_allclose(dist[PP] + dist[MP], 0.5, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            _check_joints(np.array([0.5, 0.5, 0.5, -0.5]))
        with pytest.raises(ValueError):
            _check_joints(np.array([0.3, 0.3, 0.3, 0.3]))

    def test_validation_rejects_nan(self):
        with pytest.raises(ValueError):
            _check_joints(np.array([math.nan, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            _check_joints(np.array([[0.5, 0.0, 0.0, 0.5], [0.5, math.nan, 0.0, 0.5]]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_correlation_of_joints(self, kind):
        state = make_state(kind)
        grid = np.radians(np.arange(0.0, 360.0, 15.0))
        table = joint_distribution(state, grid[:, None], grid[None, :])
        e = joint_correlation(table)
        assert e.shape == (24, 24)
        assert_allclose(e, closed_form_correlation(kind, grid[:, None], grid[None, :]),
                        atol=1e-12)
        point = joint_correlation(table[3, 5])
        assert type(point) is float and point == e[3, 5]


class TestJointTable:
    """joint_distribution over angle arrays against per-point calls."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @settings(max_examples=40, deadline=None)
    @given(
        angles=arrays(
            np.float64, (2, 60), elements=st.floats(-20.0, 20.0, width=64)
        )
    )
    def test_matches_scalar_path_bitwise(self, kind, angles):
        state = make_state(kind)
        delta, gamma = angles
        table = joint_distribution(state, delta, gamma)
        assert table.shape == (60, 4)
        for row, d, g in zip(table, delta, gamma):
            scalar = joint_distribution(state, float(d), float(g))
            assert np.array_equal(row.view(np.int64), scalar.view(np.int64))
        assert np.all(table >= 0.0)
        assert np.all(np.abs(table.sum(axis=-1) - 1.0) <= 1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_grid_broadcast_and_shared_angles(self, kind):
        # every 5 degrees on both wings, so the equal-angle rows, whose
        # forbidden outcome pairs must read exactly 0, are included
        state = make_state(kind)
        grid = np.radians(np.arange(0.0, 360.0, 5.0))
        table = joint_distribution(state, grid[:, None], grid[None, :])
        assert table.shape == (72, 72, 4)
        for i, delta in enumerate(grid):
            for j, gamma in enumerate(grid):
                scalar = joint_distribution(state, delta, gamma)
                assert np.array_equal(table[i, j], scalar)
        diagonal = table[np.arange(72), np.arange(72)]
        forbidden = [1, 2] if kind.sign is CorrelationSign.CORRELATED else [0, 3]
        assert np.all(diagonal[:, forbidden] == 0.0)

    def test_scalar_angles_give_one_row(self):
        state = make_state(StateKind.SPIN_ANTICORRELATED)
        row = joint_distribution(state, 0.3, 1.1)
        assert row.shape == (4,)
        column = joint_distribution(state, np.array([0.3]), np.array([1.1]))
        assert np.array_equal(row, column[0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, bad):
        state = make_state(StateKind.PHOTON_CORRELATED)
        with pytest.raises(ValueError, match="finite"):
            joint_distribution(state, np.array([0.0, bad]), 0.5)
        with pytest.raises(ValueError, match="finite"):
            joint_distribution(state, 0.5, bad)


class TestCorrelation:
    def test_singlet_examples(self):
        born = QuantumBornSource(make_state(StateKind.SPIN_ANTICORRELATED))
        assert_allclose(born.correlation(0.0, 0.0), -1.0, atol=1e-15)
        assert_allclose(born.correlation(0.0, math.pi / 2), 0.0, atol=1e-12)

    def test_photon_correlated_example(self):
        born = QuantumBornSource(make_state(StateKind.PHOTON_CORRELATED))
        assert_allclose(
            born.correlation(0.0, math.pi / 8), math.cos(math.pi / 4), atol=1e-12
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_against_kron_oracle(self, kind):
        state = make_state(kind)
        rng = np.random.default_rng(31)
        for _ in range(250):
            delta, gamma = rng.uniform(-7, 7, 2)
            dist = joint_distribution(state, delta, gamma)
            ref = ref_joint(state, delta, gamma)
            for column, key in enumerate(("pp", "pm", "mp", "mm")):
                assert_allclose(dist[column], ref[key], atol=1e-13)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_rotational_invariance(self, kind):
        born = QuantumBornSource(make_state(kind))
        rng = np.random.default_rng(37)
        for _ in range(500):
            delta, gamma, shift = rng.uniform(-6, 6, 3)
            assert_allclose(
                born.correlation(delta + shift, gamma + shift),
                born.correlation(delta, gamma),
                atol=1e-12,
            )


class TestClosedForm:
    def test_stated_values(self):
        assert_allclose(
            closed_form_correlation(StateKind.SPIN_ANTICORRELATED, 0.0, 3 * math.pi / 4),
            SQRT_HALF,
            atol=1e-15,
        )
        assert closed_form_correlation(StateKind.SPIN_CORRELATED, 0.0, 0.0) == 1.0
        assert_allclose(
            closed_form_correlation(StateKind.PHOTON_ANTICORRELATED, 0.0, math.pi / 2),
            1.0,
            atol=1e-15,
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_full_grid_equivalence(self, kind):
        # vectorized Born evaluation over the full 360x360 grid; mirrors
        # the production math but checks it at scale against the formula
        state = make_state(kind)
        mult = 1.0 if state.particle is ParticleKind.SPIN_HALF else 2.0
        angles = np.radians(np.arange(360.0))
        half = angles / 2 if state.particle is ParticleKind.SPIN_HALF else angles
        c, s = np.cos(half), np.sin(half)
        bases = np.stack(
            [np.stack([c, s], axis=-1), np.stack([-s, c], axis=-1)], axis=1
        )  # (360, 2 eigvecs, 2 comps)
        m = state.amplitudes.reshape(2, 2)
        amp = np.einsum("axi,ij,byj->abxy", bases, m, bases)
        probs = np.abs(amp) ** 2
        born = probs[..., 0, 0] + probs[..., 1, 1] - probs[..., 0, 1] - probs[..., 1, 0]
        formula = kind.sign.factor * np.cos(mult * (angles[None, :] - angles[:, None]))
        assert np.max(np.abs(born - formula)) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_api_matches_closed_form(self, kind):
        born = QuantumBornSource(make_state(kind))
        rng = np.random.default_rng(43)
        for _ in range(500):
            delta, gamma = rng.uniform(-7, 7, 2)
            assert_allclose(
                born.correlation(delta, gamma),
                closed_form_correlation(kind, delta, gamma),
                atol=1e-12,
            )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_broadcast_matches_scalar(self, kind):
        grid = np.radians(np.arange(0.0, 360.0, 5.0))
        matrix = closed_form_correlation(kind, grid[:, None], grid[None, :])
        assert matrix.shape == (72, 72)
        for i, delta in enumerate(grid):
            for j, gamma in enumerate(grid):
                assert matrix[i, j] == closed_form_correlation(kind, delta, gamma)
        assert type(closed_form_correlation(kind, 0.25, 1.5)) is float


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pi_offset_behaviour(kind):
    # spin pairs swap correlation character under gamma -> gamma + pi;
    # photon pairs are pi-periodic and keep it
    state = make_state(kind)
    born = QuantumBornSource(state)
    for delta in np.linspace(-2.0, 2.0, 9):
        e = born.correlation(delta, delta + math.pi)
        if state.particle is ParticleKind.SPIN_HALF:
            expected = -kind.sign.factor
        else:
            expected = kind.sign.factor
        assert_allclose(e, expected, atol=1e-12)
