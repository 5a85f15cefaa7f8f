"""Deterministic local hidden-variable models.

A model consists of a scalar hidden variable ``lam`` with a single
probability density shared by every analyzer setting, plus two
deterministic response functions

    response_d(lam, delta) -> +-1      response_g(lam, gamma) -> +-1

Locality is built into the signatures: each response sees only its own
analyzer angle.  The shared density (one distribution regardless of the
settings eventually chosen) is likewise enforced by construction; a
model wanting setting-dependent densities simply cannot be expressed.

Correlations <d*g> are computed two ways:

* :func:`quadrature_correlation` - midpoint-rule integral of
  ``pdf(lam) * d(lam, delta) * g(lam, gamma)`` over a bounded support,
* :func:`estimate_correlation` - Monte Carlo average over sampled lam,
  with its binomial standard error: a one-pair run of the trial blocks
  of :mod:`bellsim.harness`, the one Monte Carlo engine.

Response functions must be vectorized: they receive a float ndarray of
lam values and a scalar angle or one angle per lam value, and return a
+-1 integer array of lam's shape.  ``_outcomes`` is the one evaluator that
calls them, and it rejects non-finite angles and values outside +-1: the
construction probe, the quadrature ``_quadrature`` (shared with
``inequalities.LhvSource``) and :mod:`bellsim.harness`'s blocks use it.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qstate import UsageError, joint_correlation

__all__ = [
    "LhvModel",
    "UsageError",
    "UnboundedSupportError",
    "quadrature_correlation",
    "estimate_correlation",
    "sign_model",
    "constant_model",
    "quantum_mimic_attempt",
    "builtin_models",
    "get_model",
]

TWO_PI = 2.0 * math.pi

DENSITY_ATOL = 1e-9

_NORM_CHECK_NODES = 4096


class UnboundedSupportError(ValueError):
    """Raised when quadrature is requested for an unbounded density."""


@dataclass(frozen=True)
class LhvModel:
    """Hidden-variable density plus deterministic +-1 response functions.

    ``support`` is the (lo, hi) interval of the density, or None for an
    unbounded density (Monte Carlo only).
    """

    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    sample: Callable[[np.random.Generator, int], np.ndarray]
    response_d: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    response_g: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    support: tuple[float, float] | None

    def __post_init__(self):
        if self.support is not None:
            lo, hi = self.support
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise ValueError(f"invalid support {self.support!r}")
            nodes, weight = _midpoints(self.support, _NORM_CHECK_NODES)
            norm = float(np.sum(self.pdf(nodes)) * weight)
            if not abs(norm - 1.0) <= DENSITY_ATOL:
                raise ValueError(
                    f"density of {self.name!r} integrates to {norm!r}, not 1"
                )
            probe = nodes[:: max(1, len(nodes) // 128)]
        else:
            probe = np.linspace(-100.0, 100.0, 129)
        angles = (0.0, 0.7, -2.3)
        scalar = [_outcomes(self, probe, a, a) for a in angles]
        idx = np.resize(np.arange(3), probe.shape)  # one angle per probe node
        try:  # each node must get its scalar outcome; float(angle) cannot
            mixed = _outcomes(self, probe, angles, angles, idx)
            if not all(map(np.array_equal, mixed, np.choose(idx, scalar))):
                raise ValueError("a node's outcome depends on the other angles")
        except (TypeError, ValueError) as exc:
            message = f"responses of {self.name!r} must take one angle per lam"
            raise ValueError(message) from exc
        # locality by construction: responses accept (lam, angle) only
        for resp in (self.response_d, self.response_g):
            n_args = len(inspect.signature(resp).parameters)
            if n_args != 2:
                raise ValueError("response functions must take exactly (lam, angle)")


def _midpoints(support: tuple[float, float], nodes: int) -> tuple[np.ndarray, float]:
    lo, hi = support
    h = (hi - lo) / nodes
    return lo + (np.arange(nodes) + 0.5) * h, h


def _outcomes(model, lam: np.ndarray, deltas, gammas, idx=0):
    """(response_d(lam, deltas[idx]), response_g(lam, gammas[idx])) of ``model``: each
    table angle must be finite, read or not, and each outcome +-1 (int8 wraps 255)."""
    if not (np.isfinite(deltas).all() and np.isfinite(gammas).all()):
        raise UsageError("analyzer angle must be finite")
    d = np.asarray(model.response_d(lam, np.take(deltas, idx)))
    g = np.asarray(model.response_g(lam, np.take(gammas, idx)))
    if not (np.all(np.abs(d) == 1) and np.all(np.abs(g) == 1)):
        raise ValueError(f"response of {model.name!r} returned values outside +-1")
    return d, g


def _quadrature(model: LhvModel, delta: float, gamma: float, nodes: int):
    """(pdf, weight, d, g) at the midpoint nodes of the bounded support."""
    if nodes < 1000:
        raise UsageError("nodes must be >= 1000")
    if model.support is None:
        raise UnboundedSupportError(
            f"model {model.name!r} has unbounded support; "
            "quadrature unavailable, use estimate_correlation"
        )
    lam, weight = _midpoints(model.support, nodes)
    return (model.pdf(lam), weight, *_outcomes(model, lam, float(delta), float(gamma)))


def quadrature_correlation(
    model: LhvModel, delta: float, gamma: float, nodes: int = 4096
) -> float:
    """Midpoint-rule integral of pdf(lam) * d(lam, delta) * g(lam, gamma)."""
    pdf, weight, d, g = _quadrature(model, delta, gamma, nodes)
    return float(np.sum(pdf * (d * g)) * weight)


def estimate_correlation(
    model: LhvModel, delta: float, gamma: float, n: int, seed: int
):
    """Monte Carlo estimate of <d*g> from n independent lam draws.

    The draws are the blocks of ``harness.run_trials`` on the one pair
    (delta, gamma), tallied by row code.  Returns a ``harness.PairEstimate``
    "dg" read off the tally as ``analyze_chsh`` reads one, with its error.
    """
    from . import harness  # harness imports this module

    schedule = harness.SettingsSchedule(((delta, gamma),))
    blocks = harness._blocks(model, schedule, n, seed)
    counts = sum(_one_pair_counts(code) for _, _, code in blocks)
    return harness._pair_estimate("dg", joint_correlation(counts), n)[0]


def _one_pair_counts(code):
    """``np.bincount(code, minlength=4)`` of one-pair codes, with no intp copy."""
    d, g, both = (np.count_nonzero(x) for x in (code & 2, code & 1, code == 3))
    return np.array([len(code) - d - g + both, g - both, d - both, both])


# how far, in turns, the computed phase of _sign_of_cos must lie from a zero
# of cos, and the |lam - angle| up to which its rounding stays far below that
_SIGN_SLACK = 1e-9
_SIGN_RANGE = 1e6


def _sign_of_cos(lam: np.ndarray, angle) -> np.ndarray:
    """+1 where cos(lam - angle) >= 0, else -1, as int8, for one angle or one per lam.

    Bit for bit ``np.where(np.cos(lam - angle) >= 0.0, 1, -1).astype(np.int8)``,
    with cos evaluated on few elements.  With x = lam - angle (as numpy
    rounds it), cos x = sin(2*pi*f) for the phase f = frac((x + pi/2) / 2pi),
    so cos x >= 0 exactly when f <= 1/2.  For |x| <= 1e6 the computed f is
    within 1e-10 of the exact one, so an f farther than 1e-9 from 0, 1/2
    and 1 decides the sign; there |cos x| > 6e-9, far beyond the error of
    any libm cos.  The other elements (f near a zero of cos, |x| > 1e6,
    inf, nan) take the cos expression itself.  The phase is worked out in
    place in one float64 buffer, with an int32 one for its whole turns.
    """
    lam = np.asarray(lam)
    f = np.ravel(lam - angle).astype(np.float64, copy=False)
    unsure = ~((f >= -_SIGN_RANGE) & (f <= _SIGN_RANGE))
    f += 0.5 * math.pi
    f *= 1.0 / TWO_PI
    turns = np.empty(f.shape, dtype=np.int32)
    with np.errstate(invalid="ignore"):  # the unsure elements may not fit
        np.floor(f, out=turns, casting="unsafe")
    f -= turns
    del turns
    f -= 0.5  # f - 1/2 in [-1/2, 1/2]: the sign is +1 where it is <= 0
    sign = (f > 0.0).view(np.int8)
    sign *= -2
    sign += 1
    np.abs(f, out=f)
    unsure |= f <= _SIGN_SLACK
    unsure |= f >= 0.5 - _SIGN_SLACK
    check = np.flatnonzero(unsure)
    if check.size:
        x = lam.flat[check] - np.broadcast_to(angle, lam.shape).flat[check]
        sign[check] = np.where(np.cos(x) >= 0.0, 1, -1)
    return sign.reshape(lam.shape)


def _uniform_pdf(lam: np.ndarray) -> np.ndarray:
    return np.full(np.shape(lam), 1.0 / TWO_PI)


def sign_model() -> LhvModel:
    """Threshold-response model: lam uniform on [0, 2pi),
    d = sgn cos(lam - delta), g = -sgn cos(lam - gamma).

    Strictly anticorrelated at equal angles, with the sawtooth
    correlation E = -1 + 2*|gamma - delta|/pi (angle difference folded
    to [0, pi]).  It is the extremal deterministic model: at the
    quantum-maximizing analyzer angles it reaches |S| = 2 exactly.
    """
    return LhvModel(
        name="sign_model",
        pdf=_uniform_pdf,
        sample=lambda rng, n: rng.uniform(0.0, TWO_PI, n),
        response_d=lambda lam, angle: _sign_of_cos(lam, angle),
        response_g=lambda lam, angle: -_sign_of_cos(lam, angle),
        support=(0.0, TWO_PI),
    )


def constant_model() -> LhvModel:
    """Degenerate check case: d = +1 and g = -1 regardless of lam or angle."""
    return LhvModel(
        name="constant_model",
        pdf=lambda lam: np.ones(np.shape(lam)),
        sample=lambda rng, n: rng.uniform(0.0, 1.0, n),
        response_d=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
        response_g=lambda lam, angle: -np.ones(np.shape(lam), dtype=np.int8),
        support=(0.0, 1.0),
    )


def _mimic_pdf(lam: np.ndarray) -> np.ndarray:
    return (1.0 - np.cos(4.0 * lam)) / TWO_PI


def _mimic_cdf(lam: np.ndarray) -> np.ndarray:
    return (lam - np.sin(4.0 * lam) / 4.0) / TWO_PI


def quantum_mimic_attempt() -> LhvModel:
    """Best-effort deterministic imitation of the singlet cosine law.

    Same threshold responses as the sign model, but lam is drawn from
    the density (1 - cos 4*lam)/(2*pi), which pushes weight away from
    the response thresholds.  For delta = 0 this bends the sawtooth
    toward the cosine at small separations:
    E(0, t) = -1 + 2*(t - sin(4t)/4)/pi, so E(0, pi/8) ~ -0.909 against
    the quantum -0.924 (the plain sawtooth gives -0.75).  The model is
    strictly anticorrelated and, like every model of this class, stays
    within |S| <= 2 however the four analyzer angles are chosen.

    Sampling inverts the CDF through a 16K-point monotone table; the
    interpolation error is orders of magnitude below Monte Carlo
    resolution at any practical sample count.  A bucketed index
    (:class:`_BucketedInverseCdf`) reads the table in constant time per
    draw and returns exactly what ``np.interp`` would; it is built once per
    process, read-only, and shared by every (still validated) model.  The
    responses are the sign model's (:func:`_sign_of_cos`), which calls cos
    only on the few draws within 1e-9 of a turn of a response threshold.
    """
    inverse_cdf = _mimic_inverse_cdf()
    return LhvModel(
        name="quantum_mimic_attempt",
        pdf=_mimic_pdf,
        sample=lambda rng, n: inverse_cdf(rng.random(n)),
        response_d=lambda lam, angle: _sign_of_cos(lam, angle),
        response_g=lambda lam, angle: -_sign_of_cos(lam, angle),
        support=(0.0, TWO_PI),
    )


@functools.cache
def _mimic_inverse_cdf() -> _BucketedInverseCdf:
    """The mimic's inverse CDF, built on first use; its arrays are read-only."""
    lam_table = np.linspace(0.0, TWO_PI, 16385)
    inverse_cdf = _BucketedInverseCdf(_mimic_cdf(lam_table), lam_table)
    for table in vars(inverse_cdf).values():
        table.setflags(write=False)
    return inverse_cdf


class _BucketedInverseCdf:
    """``np.interp(u, u_table, lam_table)`` for draws u in [0, 1), bit for bit.

    ``u_table`` increases from 0.  A table of 2**18 uniform buckets holds
    the row (last knot at or below) of each bucket's left edge.  Only
    draws in a bucket that holds a knot, about 6% for the mimic CDF, need
    more: one compare with the next knot when the bucket holds one, a
    binary search when it holds more (0.14% of draws).  The value is
    numpy's own formula slope[j] * (u - u_table[j]) + lam_table[j]; draws
    at or past the last knot read the last value.
    """

    BITS = 18

    def __init__(self, u_table: np.ndarray, lam_table: np.ndarray):
        if u_table[0] != 0.0:
            raise ValueError("the CDF table must start at 0")
        buckets = 1 << self.BITS
        # row i covers the bucket edges ceil(u_i * buckets) up to the next
        # row's; the last row covers the rest, through the right edge
        edges = np.minimum(np.ceil(u_table * buckets), buckets + 1).astype(np.int64)
        counts = np.diff(edges, append=buckets + 1)
        rows = np.arange(len(u_table), dtype=np.min_scalar_type(len(u_table)))
        first = np.repeat(rows, counts)
        self._first = first[:-1]
        knots = np.diff(first)  # knots in the bucket, its right edge included
        self._spans_knot = knots != 0
        self._spans_knots = knots > 1
        self._u = u_table
        self._lam = lam_table
        # a zero slope past the last knot turns the formula into lam_table[-1]
        self._slope = np.append(np.diff(lam_table) / np.diff(u_table), 0.0)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        bucket = (u * (1 << self.BITS)).astype(np.intp)
        j = np.take(self._first, bucket).astype(np.intp)
        search = np.flatnonzero(np.take(self._spans_knot, bucket))
        many = np.flatnonzero(np.take(self._spans_knots, bucket[search]))
        del bucket
        u_search, j_search = u[search], j[search]
        # one knot: the draw's row is the next one once it reaches the knot
        j_search += u_search >= np.take(self._u, j_search + 1)
        j_search[many] = np.searchsorted(self._u, u_search[many], side="right") - 1
        j[search] = j_search
        lam = np.subtract(u, np.take(self._u, j))
        lam *= np.take(self._slope, j)
        lam += np.take(self._lam, j)
        return lam


_BUILTIN_MODELS = {
    "sign_model": sign_model,
    "constant_model": constant_model,
    "quantum_mimic_attempt": quantum_mimic_attempt,
}


def builtin_models() -> list[LhvModel]:
    return [factory() for factory in _BUILTIN_MODELS.values()]


def get_model(name: str) -> LhvModel:
    """Build the one built-in model called ``name``."""
    if name not in _BUILTIN_MODELS:
        known = ", ".join(_BUILTIN_MODELS)
        raise KeyError(f"unknown model {name!r} (available: {known})")
    return _BUILTIN_MODELS[name]()
