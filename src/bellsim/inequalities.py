"""Inequality evaluators and exhaustive enumeration oracles.

Every evaluator takes a :class:`CorrelationSource`, an object providing
the correlation function ``E(delta, gamma)`` and, where meaningful, the
joint outcome-pair probabilities: an array whose last axis holds the
(D, G) outcome pairs in the column order (+,+), (+,-), (-,+), (-,-).
Sources wrap the quantum closed forms, the exact Born engine, local
hidden-variable models, empirical counts, and convex mixtures of
fixed-outcome sextets, so the same inequality code runs against theory,
simulation, and data.

The CHSH sums have one implementation, :func:`chsh_variants`: from the
four correlations in role order (dg, dg', d'g, d'g') it forms
S_k = sum of the four with a minus on role k only, the four sign
variants whose bounds |S_k| <= 2 are the eight CHSH inequalities of
Fine (PRL 48, 291 (1982)).  S_3 is the usual S.

Implemented bounds:

* :func:`bell_d1` - the original three-correlation inequality
  |E(d,g) - E(d,g')| -+ E(g,g') <= 1 (minus for anticorrelated pairs,
  plus for correlated ones; the third correlation puts analyzer D at
  angle g).
* :func:`chsh_d3` - the four-setting variant
  |E(d,g) - E(d,g')| + E(d',g') + E(d',g) <= 2, valid for correlated
  and anticorrelated pairs alike; its lhs is max(S_0, S_1).
* :func:`chsh_d4` - |<S>| <= 2 with
  S = S_3 = E(d,g) + E(d,g') + E(d',g) - E(d',g').
* :func:`wigner_check` - the three-angle probability inequality for
  strictly (anti)correlated pairs, read in the pair's sign form.

The enumeration oracles ground the convex bounds in integer
arithmetic: :func:`enumerate_quartets` lists all 16 joint outcome
assignments for four settings (each with every S_k = +-2 exactly), and
:func:`enumerate_sextets` lists the 8 assignments for three shared
angles consistent with strict (anti)correlation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lhv import LhvModel, _quadrature, quadrature_correlation
from .qstate import (
    CorrelationSign,
    EntangledState,
    StateKind,
    closed_form_correlation,
    joint_correlation,
    joint_distribution,
)

__all__ = [
    "VIOLATION_TOLERANCE",
    "InequalityReport",
    "CorrelationSource",
    "JointUnavailableError",
    "QuantumClosedFormSource",
    "QuantumBornSource",
    "LhvSource",
    "EmpiricalSource",
    "SextetMixtureSource",
    "bell_d1",
    "chsh_variants",
    "chsh_s",
    "chsh_d4",
    "chsh_d3",
    "wigner_terms",
    "wigner_check",
    "Quartet",
    "enumerate_quartets",
    "quartet_mixture_s",
    "Sextet",
    "enumerate_sextets",
]

# analytic sources count as violating only beyond this margin; statistical
# sources should be judged on their standard errors instead
VIOLATION_TOLERANCE = 1e-9

WEIGHT_ATOL = 1e-9


@dataclass(frozen=True)
class InequalityReport:
    name: str
    lhs: float
    bound: float

    @property
    def margin(self) -> float:
        return self.lhs - self.bound

    @property
    def violated(self) -> bool:
        return self.margin > VIOLATION_TOLERANCE

    def __str__(self):
        flag = "VIOLATED" if self.violated else "satisfied"
        return f"{self.name}: lhs={self.lhs:.6f} bound={self.bound:.6f} ({flag})"


class JointUnavailableError(ValueError):
    """Raised when a source cannot provide joint outcome probabilities."""


class CorrelationSource:
    """Provider of E(delta, gamma); subclasses may also provide joints.

    :meth:`joints` returns the outcome-pair probabilities at a settings
    pair as an array in the column order above; a source that can
    broadcast over angle arrays does so.  A subclass that provides
    joints gets E from them by default.
    """

    def correlation(self, delta: float, gamma: float) -> float:
        return joint_correlation(self.joints(delta, gamma))

    def joints(self, delta, gamma) -> np.ndarray:
        raise JointUnavailableError(
            f"{type(self).__name__} provides no joint outcome probabilities"
        )


class QuantumClosedFormSource(CorrelationSource):
    """Analytic cosine correlations for one of the four canonical states."""

    def __init__(self, kind: StateKind):
        self.kind = kind

    def correlation(self, delta: float, gamma: float) -> float:
        return closed_form_correlation(self.kind, delta, gamma)

    def joints(self, delta, gamma) -> np.ndarray:
        # all four canonical states have uniform marginals and symmetric
        # joints, so E determines the distribution
        e = self.correlation(delta, gamma)
        same = 0.25 * (1.0 + e)
        diff = 0.25 * (1.0 - e)
        return np.stack([same, diff, diff, same], axis=-1)


class QuantumBornSource(CorrelationSource):
    """Exact Born-rule evaluation of an entangled state."""

    def __init__(self, state: EntangledState):
        self.state = state

    def joints(self, delta, gamma) -> np.ndarray:
        return joint_distribution(self.state, delta, gamma)


class LhvSource(CorrelationSource):
    """Correlations and joints of a hidden-variable model by midpoint
    quadrature over ``nodes`` nodes."""

    def __init__(self, model: LhvModel, nodes: int = 4096):
        self.model = model
        self.nodes = nodes

    def correlation(self, delta: float, gamma: float) -> float:
        return quadrature_correlation(self.model, delta, gamma, self.nodes)

    def joints(self, delta: float, gamma: float) -> np.ndarray:
        pdf, weight, d, g = _quadrature(self.model, delta, gamma, self.nodes)
        rho = pdf * weight
        return np.array(
            [np.sum(rho[(d == x) & (g == y)]) for x in (1, -1) for y in (1, -1)]
        )


class EmpiricalSource(CorrelationSource):
    """Correlations estimated from coincidence counts.

    ``pairs`` lists the measured (delta, gamma) settings pairs and
    ``counts`` the matching (n_pp, n_pm, n_mp, n_mm) rows; rows that
    list the same pair add up.  Lookups require the exact settings
    pair; there is no interpolation between nearby angles, so an
    inequality can only be evaluated on data that actually contains
    every pair it references.
    """

    def __init__(self, pairs: Sequence[tuple[float, float]], counts: np.ndarray):
        raw = np.asarray(counts)
        if raw.shape != (len(pairs), 4):
            raise ValueError("counts must have one (pp, pm, mp, mm) row per pair")
        with np.errstate(invalid="ignore"):  # NaN and inf fail the comparison
            counts = raw.astype(np.int64, copy=False)
        if not np.array_equal(counts, raw):
            raise ValueError("counts must be finite integers")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        self.pairs = [(float(d), float(g)) for d, g in pairs]
        self.counts = counts
        self._rows = {}
        for pair, row in zip(self.pairs, counts):
            self._rows[pair] = self._rows.get(pair, 0) + row

    def _row(self, delta: float, gamma: float) -> np.ndarray:
        try:
            row = self._rows[(float(delta), float(gamma))]
        except KeyError:
            raise KeyError(
                f"no counts recorded for settings pair ({delta!r}, {gamma!r})"
            ) from None
        if row.sum() == 0:
            raise ValueError(
                f"settings pair ({delta!r}, {gamma!r}) has zero trials"
            )
        return row

    def correlation(self, delta: float, gamma: float) -> float:
        row = self._row(delta, gamma)
        return float(joint_correlation(row) / row.sum())

    def joints(self, delta: float, gamma: float) -> np.ndarray:
        row = self._row(delta, gamma)
        return row / row.sum()


# ---------------------------------------------------------------------------
# inequality evaluators
# ---------------------------------------------------------------------------


def bell_d1(
    source: CorrelationSource,
    delta: float,
    gamma: float,
    gamma_prime: float,
    sign: CorrelationSign,
) -> InequalityReport:
    """Three-correlation inequality |E(d,g) - E(d,g')| -+ E(g,g') <= 1.

    The minus sign applies to anticorrelated pairs, the plus sign to
    correlated ones.  The third correlation requires analyzer D to sit
    at angle gamma, which is why the four-setting variants below are
    preferred experimentally.
    """
    e_dg = source.correlation(delta, gamma)
    e_dgp = source.correlation(delta, gamma_prime)
    e_ggp = source.correlation(gamma, gamma_prime)
    lhs = abs(e_dg - e_dgp) + sign.factor * e_ggp
    return InequalityReport("bell_d1", lhs, 1.0)


# row k negates role k: S_k = sum over j of _CHSH_SIGNS[k, j] * e_j
_CHSH_SIGNS = 1 - 2 * np.eye(4, dtype=np.int8)


def chsh_variants(e) -> np.ndarray:
    """The four CHSH sums S_k of correlations in role order.

    ``e`` has a last axis of E(dg), E(dg'), E(d'g), E(d'g'); S_k adds
    them with a minus on role k only, so S_3 is the usual
    S = E(dg) + E(dg') + E(d'g) - E(d'g'), bit for bit that expression.
    Every local model obeys each |S_k| <= 2: these are the eight CHSH
    inequalities.  Integer input (outcome products) gives integer sums.
    """
    terms = np.asarray(e)[..., None, :] * _CHSH_SIGNS
    return terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def _role_correlations(source, delta, delta_prime, gamma, gamma_prime) -> list:
    return [
        source.correlation(d, g)
        for d in (delta, delta_prime)
        for g in (gamma, gamma_prime)
    ]


def chsh_s(
    source: CorrelationSource,
    delta: float,
    delta_prime: float,
    gamma: float,
    gamma_prime: float,
) -> float:
    """<S> = E(d,g) + E(d,g') + E(d',g) - E(d',g'), S_3 of :func:`chsh_variants`."""
    e = _role_correlations(source, delta, delta_prime, gamma, gamma_prime)
    return float(chsh_variants(e)[3])


def chsh_d4(
    source: CorrelationSource,
    delta: float,
    delta_prime: float,
    gamma: float,
    gamma_prime: float,
) -> InequalityReport:
    """|<S>| <= 2, the bound obeyed by every mixture of outcome quartets."""
    s = chsh_s(source, delta, delta_prime, gamma, gamma_prime)
    return InequalityReport("chsh_d4", abs(s), 2.0)


def chsh_d3(
    source: CorrelationSource,
    delta: float,
    delta_prime: float,
    gamma: float,
    gamma_prime: float,
) -> InequalityReport:
    """Four-setting inequality |E(d,g) - E(d,g')| + E(d',g') + E(d',g) <= 2.

    This displayed form holds for correlated and anticorrelated pairs
    alike.  Its lhs is max(S_0, S_1) of :func:`chsh_variants`, which
    differs from |S|; use :func:`chsh_d4` for that.
    """
    e = _role_correlations(source, delta, delta_prime, gamma, gamma_prime)
    s = chsh_variants(e)
    return InequalityReport("chsh_d3", float(max(s[0], s[1])), 2.0)


def wigner_terms(
    source: CorrelationSource,
    theta1,
    theta2,
    theta3,
    sign: CorrelationSign,
) -> tuple[np.ndarray, np.ndarray]:
    """The two sides (lhs, rhs) of the :func:`wigner_check` inequality.

    The angles broadcast against each other as far as
    ``source.joints`` does: a scan passes a theta2 array and gets one
    (lhs, rhs) pair per point, bit for bit the scalar values.
    """
    # G -> g sits at offset g_col within the d = +1 (columns 0, 1) and
    # d = -1 (columns 2, 3) halves of a joints row
    g_col = 0 if sign.factor == -1 else 1
    lhs = source.joints(theta3, theta2)[..., 2 + g_col]
    rhs = (
        source.joints(theta1, theta2)[..., g_col]
        + source.joints(theta1, theta3)[..., 2 + g_col]
    )
    return lhs, rhs


def wigner_check(
    source: CorrelationSource,
    theta1: float,
    theta2: float,
    theta3: float,
    sign: CorrelationSign,
) -> InequalityReport:
    """Three-angle probability inequality for strictly (anti)correlated pairs.

    With both wings restricted to the shared angles theta1..theta3 and
    g = -sign.factor (+1 for anticorrelated pairs, -1 for correlated
    ones), the three measurable joint probabilities

        lhs = P(D at theta3 -> -1, G at theta2 -> g)
        rhs = P(D at theta1 -> +1, G at theta2 -> g)
            + P(D at theta1 -> -1, G at theta3 -> g)

    satisfy lhs <= rhs for every mixture of fixed-outcome sextets of
    that sign.  G at theta_j -> g pins d_j = -1, so the lhs event set
    {d2 = d3 = -1} splits exactly into disjoint subsets of the two rhs
    event sets {d1 = +1, d2 = -1} and {d1 = -1, d3 = -1}.  For the spin
    states the three probabilities are half cos^2((theta2-theta3)/2),
    half sin^2((theta2-theta1)/2) and half cos^2((theta3-theta1)/2);
    photon states read the same with the angles doubled.  The
    inequality fails on a wide range of angles.

    The source must provide joint probabilities; :func:`wigner_terms`
    evaluates the same pattern over arrays of angles.
    """
    lhs, rhs = wigner_terms(source, theta1, theta2, theta3, sign)
    return InequalityReport("wigner", float(lhs), float(rhs))


# ---------------------------------------------------------------------------
# exhaustive enumerations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Quartet:
    """One joint assignment of +-1 outcomes to the four settings."""

    d_delta: int
    g_gamma: int
    d_delta_prime: int
    g_gamma_prime: int

    @property
    def s_value(self) -> int:
        """S = d*g + d*g' + d'*g - d'*g', always +2 or -2."""
        d, g = self.d_delta, self.g_gamma
        dp, gp = self.d_delta_prime, self.g_gamma_prime
        return int(chsh_variants([d * g, d * gp, dp * g, dp * gp])[3])


def enumerate_quartets() -> list[Quartet]:
    """All 16 outcome quartets (d, g, d', g'), +1 first, d slowest.

    Each :func:`chsh_variants` sum of the outcome products, S = S_3 =
    d*g + d*g' + d'*g - d'*g' among them, equals +2 or -2 for every
    quartet, which is the integer fact behind the |<S_k>| <= 2 bounds
    for any mixture.
    """
    return [Quartet(*outcomes) for outcomes in itertools.product((1, -1), repeat=4)]


def quartet_mixture_s(weights: Sequence[float]) -> float:
    """<S> of a convex mixture of the 16 quartets; always within [-2, 2]."""
    w = _validated_weights(weights, 16)
    s_values = np.array([q.s_value for q in enumerate_quartets()], dtype=np.int64)
    return float(np.dot(w, s_values))


@dataclass(frozen=True)
class Sextet:
    """Joint +-1 outcomes for both wings at three shared angles.

    Strict (anti)correlation ties the wings together: g_j = -d_j for
    anticorrelated pairs, g_j = d_j for correlated ones, so a sextet is
    fully determined by (d1, d2, d3).
    """

    d: tuple[int, int, int]
    g: tuple[int, int, int]
    sign: CorrelationSign

    def __post_init__(self):
        if any(gj != self.sign.factor * dj for dj, gj in zip(self.d, self.g)):
            raise ValueError("sextet violates the (anti)correlation constraint")


def enumerate_sextets(sign: CorrelationSign) -> list[Sextet]:
    """The 8 constraint-consistent sextets, ordered by d with +1 first."""
    return [
        Sextet(d=d, g=tuple(sign.factor * dj for dj in d), sign=sign)
        for d in itertools.product((1, -1), repeat=3)
    ]


class SextetMixtureSource(CorrelationSource):
    """Joint probabilities of a sextet mixture at three labelled angles.

    ``thetas`` names the three shared analyzer angles; joints are
    available exactly at those angles (matched by value).  Measuring D
    at theta_i and G at theta_j reads outcome d_i on one wing and g_j
    on the other, so the joint is the weight of the matching sextets.
    """

    def __init__(
        self,
        weights: Sequence[float],
        sign: CorrelationSign,
        thetas: tuple[float, float, float],
    ):
        self.weights = _validated_weights(weights, 8)
        self.sign = sign
        self.thetas = tuple(float(t) for t in thetas)
        self._sextets = enumerate_sextets(sign)

    def _angle_index(self, angle: float) -> int:
        for i, t in enumerate(self.thetas):
            if float(angle) == t:
                return i
        raise KeyError(f"angle {angle!r} is not one of the mixture angles")

    def joints(self, delta: float, gamma: float) -> np.ndarray:
        i = self._angle_index(delta)
        j = self._angle_index(gamma)
        p = np.zeros(4)
        for wi, s in zip(self.weights, self._sextets):
            p[2 * (s.d[i] < 0) + (s.g[j] < 0)] += wi
        return p


def _validated_weights(weights: Sequence[float], size: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (size,):
        raise ValueError(f"expected {size} weights, got shape {w.shape}")
    if not np.all(w >= -WEIGHT_ATOL):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if not abs(total - 1.0) <= WEIGHT_ATOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    return w
