import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from bellsim import harness, lhv
from bellsim.lhv import (
    LhvModel,
    UnboundedSupportError,
    builtin_models,
    constant_model,
    estimate_correlation,
    get_model,
    quadrature_correlation,
    quantum_mimic_attempt,
    sign_model,
)

TWO_PI = 2 * math.pi


def sawtooth(delta, gamma):
    """Exact sign-model correlation, angle difference folded to [0, pi]."""
    t = abs(gamma - delta) % TWO_PI
    t = min(t, TWO_PI - t)
    return -1.0 + 2.0 * t / math.pi


def grid_oracle(model, delta, gamma, n=400_000):
    """Dense-lambda enumeration of <d*g>, independent of the quadrature
    code path (inline midpoints, plain mean of density-weighted products)."""
    lo, hi = model.support
    lam = lo + (np.arange(n) + 0.5) * ((hi - lo) / n)
    products = model.response_d(lam, delta) * model.response_g(lam, gamma)
    return float(np.mean(model.pdf(lam) * products) * (hi - lo))


class TestModelInvariants:
    @pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.name)
    def test_density_normalized(self, model):
        lo, hi = model.support
        lam = lo + (np.arange(100_000) + 0.5) * ((hi - lo) / 100_000)
        assert abs(np.sum(model.pdf(lam)) * (hi - lo) / 100_000 - 1.0) <= 1e-9

    @pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.name)
    def test_responses_are_plus_minus_one(self, model):
        lo, hi = model.support
        lam = np.linspace(lo, hi, 10_001)
        for angle in (-2.0, 0.0, 0.31, math.pi):
            for resp in (model.response_d, model.response_g):
                assert set(np.unique(resp(lam, angle))) <= {-1, 1}

    def test_every_builtin_support_is_bounded(self):
        # lhv-sim runs only built-in models and prints each one's quadrature
        assert all(model.support is not None for model in builtin_models())

    @pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.name)
    def test_locality_signature(self, model):
        # each response sees one lambda array and one local angle, nothing else
        for resp in (model.response_d, model.response_g):
            assert len(inspect.signature(resp).parameters) == 2

    def test_rejects_unnormalized_density(self):
        with pytest.raises(ValueError, match="integrates"):
            LhvModel(
                name="bad",
                pdf=lambda lam: np.full(np.shape(lam), 1.0),
                sample=lambda rng, n: rng.uniform(0, 2, n),
                response_d=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
                response_g=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
                support=(0.0, 2.0),
            )

    def test_rejects_non_binary_response(self):
        with pytest.raises(ValueError, match="outside"):
            LhvModel(
                name="bad",
                pdf=lambda lam: np.full(np.shape(lam), 0.5),
                sample=lambda rng, n: rng.uniform(0, 2, n),
                response_d=lambda lam, angle: np.zeros(np.shape(lam), dtype=np.int8),
                response_g=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
                support=(0.0, 2.0),
            )

    @pytest.mark.parametrize(
        "support", [(0.0, math.inf), (math.nan, 1.0), (1.0, 1.0), (2.0, 0.0)]
    )
    def test_rejects_invalid_support(self, support):
        with pytest.raises(ValueError, match="invalid support"):
            LhvModel(
                name="bad",
                pdf=lambda lam: np.full(np.shape(lam), 1.0),
                sample=lambda rng, n: rng.uniform(0, 1, n),
                response_d=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
                response_g=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
                support=support,
            )

    def test_rejects_response_with_extra_argument(self):
        # a response that could read more than (lam, angle) is not local
        with pytest.raises(ValueError, match=r"exactly \(lam, angle\)"):
            LhvModel(
                name="nonlocal",
                pdf=lambda lam: np.full(np.shape(lam), 1.0),
                sample=lambda rng, n: rng.uniform(0, 1, n),
                response_d=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
                response_g=lambda lam, angle, other=0.0: np.ones(
                    np.shape(lam), dtype=np.int8
                ),
                support=(0.0, 1.0),
            )

    @pytest.mark.parametrize(
        "response",
        [
            # reads its angle as one float, so fails on one angle per lam
            lambda lam, angle: lhv._sign_of_cos(lam, float(angle)),
            # takes an angle array but answers every lam at its first angle
            lambda lam, angle: lhv._sign_of_cos(lam, np.ravel(angle)[0]),
        ],
        ids=["float_angle", "first_angle_only"],
    )
    def test_rejects_response_that_needs_a_scalar_angle(self, response):
        # a block calls each response once with one angle per trial: a
        # response that cannot take that fails when the model is built
        with pytest.raises(ValueError, match="must take one angle per lam"):
            LhvModel(
                name="scalar_only",
                pdf=lambda lam: np.full(np.shape(lam), 1.0 / TWO_PI),
                sample=lambda rng, n: rng.uniform(0.0, TWO_PI, n),
                response_d=lambda lam, angle: lhv._sign_of_cos(lam, angle),
                response_g=response,
                support=(0.0, TWO_PI),
            )

    def test_get_model(self):
        assert get_model("sign_model").name == "sign_model"
        with pytest.raises(KeyError, match="unknown model"):
            get_model("nonesuch")

    def test_get_model_builds_only_the_named_model(self, monkeypatch):
        # the mimic's table is cached: clear it, so a build would show
        lhv._mimic_inverse_cdf.cache_clear()
        built = []
        monkeypatch.setattr(lhv, "_BucketedInverseCdf", lambda *a: built.append(a))
        assert get_model("sign_model").name == "sign_model"
        with pytest.raises(KeyError) as err:
            get_model("nonesuch")
        assert built == []
        assert err.value.args[0] == (
            "unknown model 'nonesuch' (available: "
            "sign_model, constant_model, quantum_mimic_attempt)"
        )

    def test_mimic_table_is_built_once_and_read_only(self, monkeypatch):
        # every get_model call validates a new model; the inverse-CDF table
        # behind them is built once and cannot be written
        validated = []
        post_init = LhvModel.__post_init__
        monkeypatch.setattr(
            LhvModel, "__post_init__", lambda m: (validated.append(m.name), post_init(m))
        )
        lhv._mimic_inverse_cdf.cache_clear()
        first = get_model("quantum_mimic_attempt")
        second = get_model("quantum_mimic_attempt")
        assert first is not second
        assert validated == ["quantum_mimic_attempt"] * 2
        assert lhv._mimic_inverse_cdf.cache_info().misses == 1
        draws = [m.sample(np.random.default_rng(5), 1000) for m in (first, second)]
        assert draws[0].tobytes() == draws[1].tobytes()
        tables = vars(lhv._mimic_inverse_cdf()).values()
        assert len(tables) == 6
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0
        assert draws[0].tobytes() == first.sample(np.random.default_rng(5), 1000).tobytes()

    def test_rejects_nan_density(self):
        with pytest.raises(ValueError, match="integrates"):
            LhvModel(
                name="nan",
                pdf=lambda lam: np.full(np.shape(lam), math.nan),
                sample=lambda rng, n: rng.uniform(0, 1, n),
                response_d=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
                response_g=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
                support=(0.0, 1.0),
            )


class TestSamplePair:
    def test_sign_model_equal_angles_always_opposite(self):
        model = sign_model()
        # exhaustive over a lambda grid, straight through the responses
        lam = np.linspace(0.0, TWO_PI, 20_001)
        products = model.response_d(lam, 0.0) * model.response_g(lam, 0.0)
        assert np.all(products == -1)

    def test_codomain(self):
        # one lam per trial feeds both wings
        rng = np.random.default_rng(3)
        for model in builtin_models():
            lam = model.sample(rng, 50)
            d = model.response_d(lam, 0.4)
            g = model.response_g(lam, 1.1)
            assert d.shape == g.shape == (50,)
            assert np.all(np.abs(d) == 1) and np.all(np.abs(g) == 1)

    def test_deterministic_under_seed(self):
        for model in builtin_models():
            first = model.sample(np.random.default_rng(42), 1000)
            second = model.sample(np.random.default_rng(42), 1000)
            assert np.array_equal(first, second)


class TestBucketedInverseCdf:
    LAM = np.linspace(0.0, TWO_PI, 16385)
    U = lhv._mimic_cdf(LAM)
    INVERSE = lhv._BucketedInverseCdf(U, LAM)

    def assert_matches_interp(self, u):
        lam = self.INVERSE(u)
        expected = np.interp(u, self.U, self.LAM)
        assert np.array_equal(lam.view(np.int64), expected.view(np.int64))

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(1, 500),
            elements=st.floats(0.0, 1.0, exclude_max=True, width=64),
        )
    )
    def test_random_draws_match_interp(self, u):
        self.assert_matches_interp(u)

    def test_many_uniform_draws_match_interp(self):
        self.assert_matches_interp(np.random.default_rng(12).random(1_000_000))

    def test_hard_inputs_match_interp(self):
        # knots, bucket edges and the floats either side of each
        buckets = 1 << lhv._BucketedInverseCdf.BITS
        edges = np.arange(buckets) / buckets
        points = np.concatenate([self.U, edges])
        u = np.concatenate(
            [points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)]
        )
        self.assert_matches_interp(u[(u >= 0.0) & (u < 1.0)])

    @pytest.mark.parametrize("held", ["no", "one", "several"])
    @pytest.mark.parametrize("table", ["mimic", "random"])
    def test_draws_by_knots_in_their_bucket_match_interp(self, table, held):
        # the mimic table, and 2**18 random knots with random values, where
        # a draw on a knot read from the row below it comes out a little off;
        # the knots in each bucket [edge, next edge) are counted here without
        # the sampler's table, and the draws sit at the bucket's edges and
        # middle, and exactly on each of its knots and either side of them
        if table == "mimic":
            u_table, lam_table = self.U, self.LAM
        else:
            rng = np.random.default_rng(14)
            u_table = np.unique(np.append(rng.random(1 << 18), 0.0))
            lam_table = rng.standard_normal(len(u_table))
        inverse = lhv._BucketedInverseCdf(u_table, lam_table)
        buckets = 1 << lhv._BucketedInverseCdf.BITS
        edges = np.arange(buckets + 1) / buckets
        knots = np.diff(np.searchsorted(u_table, edges, side="left"))
        kind = {"no": knots == 0, "one": knots == 1, "several": knots > 1}[held]
        chosen = np.flatnonzero(kind)
        assert chosen.size
        on_knot = u_table[np.isin(np.floor(u_table * buckets), chosen)]
        assert (held == "no") == (on_knot.size == 0)
        left, right = edges[chosen], edges[chosen + 1]
        u = np.concatenate([
            left, (left + right) / 2, np.nextafter(right, 0.0),
            on_knot, np.nextafter(on_knot, -1.0), np.nextafter(on_knot, 2.0),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        lam = inverse(u)
        expected = np.interp(u, u_table, lam_table)
        assert np.array_equal(lam.view(np.int64), expected.view(np.int64))

    def test_draws_past_the_last_knot_read_the_last_value(self):
        u_table = np.array([0.0, 0.25, 0.5, 0.75])
        lam_table = np.array([0.0, 1.0, 2.0, 3.0])
        inverse = lhv._BucketedInverseCdf(u_table, lam_table)
        u = np.array([0.0, 0.1, 0.25, 0.6, 0.75, 0.8, np.nextafter(1.0, 0.0)])
        lam = inverse(u)
        assert np.array_equal(lam, np.interp(u, u_table, lam_table))
        assert np.all(lam[-3:] == 3.0)

    def test_table_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            lhv._BucketedInverseCdf(np.array([0.1, 0.5]), np.array([0.0, 1.0]))

    def test_model_samples_are_interp_of_the_same_draws(self):
        model = quantum_mimic_attempt()
        lam = model.sample(np.random.default_rng(8), 100_000)
        u = np.random.default_rng(8).random(100_000)
        assert np.array_equal(lam, np.interp(u, self.U, self.LAM))


def sign_of_cos_oracle(lam, angle):
    """The cos expression that ``lhv._sign_of_cos`` must reproduce."""
    return np.where(np.cos(lam - angle) >= 0.0, 1, -1).astype(np.int8)


# the analyzer angles of the benchmark's LHV runs: the default CHSH angles
# and the lhv-sim gamma of 22.5 degrees
SIGN_ANGLES = [math.radians(a) for a in (0.0, -90.0, 135.0, -135.0, 22.5)]


class TestSignOfCos:
    def assert_matches_oracle(self, lam, angle):
        with np.errstate(invalid="ignore"):  # cos(inf) is nan
            sign = lhv._sign_of_cos(lam, angle)
            expected = sign_of_cos_oracle(lam, angle)
        assert sign.dtype == np.int8
        assert sign.shape == expected.shape
        assert np.array_equal(sign, expected)

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(0, 300),
            elements=st.one_of(st.floats(-50.0, 50.0), st.floats(width=64)),
        ),
        st.floats(-10.0, 10.0),
    )
    def test_random_inputs_match_cos(self, lam, angle):
        self.assert_matches_oracle(lam, angle)

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.float64, st.integers(1, 300), elements=st.floats(-10.0, 10.0)),
        st.data(),
    )
    def test_angle_arrays_match_cos(self, angle, data):
        # one angle per lam, as a block's responses get them; kinds 1 to 5
        # force the cos fallback: x = lam - angle within 1e-9 of a turn of a
        # zero of cos, |x| > 1e6, inf and nan
        n = len(angle)
        kind = data.draw(arrays(np.intp, n, elements=st.integers(0, 5)))
        u = data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
        turns = data.draw(arrays(np.intp, n, elements=st.integers(-3, 3)))
        zeros = np.where(u < 0.0, -0.5, 0.5) * math.pi + TWO_PI * turns
        x = np.choose(kind, [
            50.0 * u,
            zeros + 0.9 * TWO_PI * lhv._SIGN_SLACK * u,
            np.copysign(2e6, u) * 10.0 ** (290.0 * np.abs(u)),
            np.full(n, np.inf),
            np.full(n, -np.inf),
            np.full(n, np.nan),
        ])
        self.assert_matches_oracle(angle + x, angle)

    def test_many_uniform_draws_match_cos(self):
        lam = np.random.default_rng(21).uniform(-20.0, 20.0, 1_000_000)
        for angle in SIGN_ANGLES:
            self.assert_matches_oracle(lam, angle)

    @pytest.mark.parametrize("angle", SIGN_ANGLES)
    def test_neighbours_of_every_sign_change_match_cos(self, angle):
        # the lam nearest each zero of cos(lam - angle), 60 floats either
        # side of it, and the points either side of the 1e-9-turn slack
        # around the zero, where the phase alone decides the sign
        zeros = np.array(
            [s * math.pi / 2 + angle + TWO_PI * k for s in (-1, 1) for k in range(-3, 4)]
        )
        steps = np.arange(-60, 61)
        ulps = np.spacing(np.abs(zeros))[:, None] * steps
        edges = TWO_PI * lhv._SIGN_SLACK * np.linspace(0.8, 1.2, 41)
        lam = np.concatenate([
            (zeros[:, None] + ulps).ravel(),
            (zeros[:, None] + edges).ravel(),
            (zeros[:, None] - edges).ravel(),
        ])
        self.assert_matches_oracle(lam, angle)

    def test_far_and_non_finite_inputs_match_cos(self):
        far = np.array([1e6, 1e6 + 1.0, 3.7e6, 1e15, 2.0**60, 1e300])
        lam = np.concatenate([far, -far, [np.inf, -np.inf, np.nan, 0.1, -2.0]])
        for angle in SIGN_ANGLES:
            self.assert_matches_oracle(lam, angle)

    def test_empty_scalar_and_2d_inputs_match_cos(self):
        grid = np.random.default_rng(5).uniform(-7.0, 7.0, (40, 30))
        for lam in (np.empty(0), np.empty((0, 3)), np.float64(0.4), grid, grid.T):
            self.assert_matches_oracle(lam, 0.9)

    def test_cos_is_evaluated_on_few_elements(self, monkeypatch):
        evaluated = []
        cos = np.cos

        def counting_cos(x, *args, **kwargs):
            evaluated.append(np.size(x))
            return cos(x, *args, **kwargs)

        monkeypatch.setattr(lhv.np, "cos", counting_cos)
        lam = np.random.default_rng(6).uniform(0.0, TWO_PI, 100_000)
        lhv._sign_of_cos(lam, 0.3)
        assert sum(evaluated) < 10


class TestQuadrature:
    def test_sign_model_key_angles(self):
        model = sign_model()
        assert_allclose(quadrature_correlation(model, 0.3, 0.3), -1.0, atol=1e-12)
        assert_allclose(
            quadrature_correlation(model, 0.0, math.pi / 2, nodes=100_000),
            0.0,
            atol=2e-4,
        )
        assert_allclose(
            quadrature_correlation(model, 0.0, math.pi, nodes=100_000),
            1.0,
            atol=2e-4,
        )

    def test_sign_model_matches_sawtooth_and_grid_oracle(self):
        model = sign_model()
        rng = np.random.default_rng(7)
        for _ in range(25):
            delta, gamma = rng.uniform(-7, 7, 2)
            quad = quadrature_correlation(model, delta, gamma, nodes=50_000)
            assert_allclose(quad, sawtooth(delta, gamma), atol=5e-4)
            assert_allclose(quad, grid_oracle(model, delta, gamma), atol=5e-4)

    def test_mimic_closed_form_at_zero(self):
        # E(0, t) = -1 + 2*(t - sin(4t)/4)/pi for t in (0, pi)
        model = quantum_mimic_attempt()
        for t in np.linspace(0.1, math.pi - 0.1, 9):
            expected = -1.0 + 2.0 * (t - math.sin(4 * t) / 4.0) / math.pi
            assert_allclose(
                quadrature_correlation(model, 0.0, t, nodes=50_000),
                expected,
                atol=5e-4,
            )

    def test_constant_model_is_minus_one_everywhere(self):
        model = constant_model()
        rng = np.random.default_rng(9)
        for _ in range(10):
            delta, gamma = rng.uniform(-7, 7, 2)
            assert_allclose(quadrature_correlation(model, delta, gamma), -1.0, atol=1e-12)

    def test_node_floor(self):
        with pytest.raises(ValueError, match="nodes"):
            quadrature_correlation(sign_model(), 0.0, 0.0, nodes=100)

    def test_unbounded_support_rejected(self):
        unbounded = LhvModel(
            name="gaussian_threshold",
            pdf=lambda lam: np.exp(-0.5 * lam**2) / math.sqrt(TWO_PI),
            sample=lambda rng, n: rng.normal(size=n),
            response_d=lambda lam, angle: np.where(lam >= angle, 1, -1),
            response_g=lambda lam, angle: np.where(lam >= angle, -1, 1),
            support=None,
        )
        with pytest.raises(UnboundedSupportError):
            quadrature_correlation(unbounded, 0.0, 1.0)
        # Monte Carlo still works
        est = estimate_correlation(unbounded, 0.0, 0.0, 10_000, seed=1)
        assert est.e == -1.0


class TestEstimate:
    def test_equal_angles_exact(self):
        est = estimate_correlation(sign_model(), 0.7, 0.7, 100_000, seed=2)
        assert est.e == -1.0
        assert est.std_error == 0.0

    def test_quarter_turn_consistent_with_zero(self):
        est = estimate_correlation(sign_model(), 0.0, math.pi / 2, 1_000_000, seed=3)
        assert abs(est.e) <= 5 * est.std_error

    def test_single_sample(self):
        est = estimate_correlation(sign_model(), 0.0, 1.0, 1, seed=4)
        assert est.e in (-1.0, 1.0)
        assert est.std_error == 0.0
        assert est.n == 1

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            estimate_correlation(sign_model(), 0.0, 0.0, 0, seed=0)

    def test_reproducible(self):
        a = estimate_correlation(quantum_mimic_attempt(), 0.1, 1.3, 5000, seed=11)
        b = estimate_correlation(quantum_mimic_attempt(), 0.1, 1.3, 5000, seed=11)
        assert a == b

    @pytest.mark.parametrize("m", [1, 3, 4000, 1 << 16])
    def test_one_pair_counts_are_the_bincount(self, m):
        # full, partial and 1-trial blocks, of random codes and of each
        # code alone
        code = np.random.default_rng(m).integers(0, 4, m).astype(np.uint8)
        for block in (code, *(np.full(m, c, dtype=np.uint8) for c in range(4))):
            counts = lhv._one_pair_counts(block)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, np.bincount(block, minlength=4))

    def test_memory_budget(self, traced_peak):
        # one byte per draw, plus the temporaries of one 65536-draw chunk
        n = 1_000_000
        model = quantum_mimic_attempt()
        est, peak = traced_peak(
            lambda: estimate_correlation(model, 0.0, math.radians(22.5), n, seed=5)
        )
        assert est.n == n
        assert peak <= 2 * n + (4 << 20)

    def test_response_outside_plus_minus_one_raises(self, bad_tail):
        # both Monte Carlo entry points and the quadrature run the check
        schedule = harness.chsh_schedule(*harness.SINGLET_CHSH_ANGLES)
        message = r"response of 'bad_tail' returned values outside \+-1"
        for bad in (0, 255):
            model = bad_tail(bad)
            with pytest.raises(ValueError, match=message):
                estimate_correlation(model, 0.0, 0.0, 10_000, seed=0)
            with pytest.raises(ValueError, match=message):
                harness.run_trials(model, schedule, 10_000, seed=0)
            with pytest.raises(ValueError, match=message):
                quadrature_correlation(model, 0.0, 0.0)


@pytest.mark.parametrize(
    "delta, gamma", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)]
)
def test_non_finite_angle_raises(delta, gamma):
    # the Born path's check and message: unchecked, a nan angle gives
    # d = -1 on every trial and a quadrature or Monte Carlo E near 0
    model = sign_model()
    schedule = harness.SettingsSchedule(((delta, gamma),))
    message = "analyzer angle must be finite"
    with pytest.raises(ValueError, match=message):
        quadrature_correlation(model, delta, gamma)
    with pytest.raises(ValueError, match=message):
        estimate_correlation(model, delta, gamma, 1000, seed=1)
    with pytest.raises(ValueError, match=message):
        harness.run_trials(model, schedule, 1000, seed=1)


@pytest.mark.parametrize(
    "n", [1, 2, 7, 65535, 65536, 65537, 3 * 65536 + 5, 1_000_003]
)
@pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.name)
def test_streamed_estimate_matches_oracle(model, n):
    # the oracle: the trials of run_trials on the one pair, and the
    # binomial error
    schedule = harness.SettingsSchedule(((0.3, 1.1),))
    log = harness.run_trials(model, schedule, n, seed=n)
    e = float(np.mean(log.outcome_d * log.outcome_g.astype(np.float64)))
    got = estimate_correlation(model, 0.3, 1.1, n, seed=n)
    assert got == harness.PairEstimate("dg", e, math.sqrt((1 - e * e) / n), n)


@pytest.mark.parametrize("model", builtin_models(), ids=lambda m: m.name)
def test_grid_consistency_quadrature_vs_montecarlo(model):
    # 36x36 angle grid: quadrature within [-1, 1] and the Monte Carlo mean
    # within 5 standard errors of it (plus float dust for the exact cases).
    # One draw of n lam serves the whole grid, so each response is
    # evaluated once per angle; the diagonal also takes fresh draws through
    # estimate_correlation itself.
    n = 100_000
    angles = np.linspace(0.0, TWO_PI, 36, endpoint=False)
    lam = model.sample(np.random.default_rng(0), n)
    d = np.array([model.response_d(lam, a) for a in angles], dtype=np.float64)
    g = np.array([model.response_g(lam, a) for a in angles], dtype=np.float64)
    mean = (d @ g.T) / n
    # the sample variance (ddof=1) of n products that are all +-1
    std_error = np.sqrt((1.0 - mean**2) / (n - 1))
    quad = np.array(
        [[quadrature_correlation(model, delta, gamma, nodes=4096) for gamma in angles]
         for delta in angles]
    )
    assert np.all(np.abs(quad) <= 1.0 + 1e-6)
    assert np.all(np.abs(mean - quad) <= 5.0 * std_error + 1e-3)
    for i, angle in enumerate(angles):
        est = estimate_correlation(model, angle, angle, n, seed=1 + i)
        assert abs(est.e - quad[i, i]) <= 5.0 * est.std_error + 1e-3


def test_builtin_chsh_ceiling_at_canonical_angles():
    # quadrature S at the quantum-maximizing angles stays within the
    # deterministic-strategy bound for every built-in model
    delta, delta_prime, gamma, gamma_prime = (
        0.0,
        -math.pi / 2,
        3 * math.pi / 4,
        -3 * math.pi / 4,
    )
    for model in builtin_models():
        s = (
            quadrature_correlation(model, delta, gamma)
            + quadrature_correlation(model, delta, gamma_prime)
            + quadrature_correlation(model, delta_prime, gamma)
            - quadrature_correlation(model, delta_prime, gamma_prime)
        )
        assert abs(s) <= 2.0 + 1e-6
