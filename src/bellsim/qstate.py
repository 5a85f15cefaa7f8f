"""Entangled two-particle states and exact Born-rule predictions.

Four canonical maximally entangled states of a two-level pair, measured
by planar analyzers at angles ``delta`` (particle D) and ``gamma``
(particle G):

    spin anticorrelated    (|ud> - |du>)/sqrt(2)    E = -cos(gamma - delta)
    spin correlated        (|uu> + |dd>)/sqrt(2)    E = +cos(gamma - delta)
    photon correlated      (|VV> + |HH>)/sqrt(2)    E = +cos(2(gamma - delta))
    photon anticorrelated  (|VH> - |HV>)/sqrt(2)    E = -cos(2(gamma - delta))

Product-basis order is (up,up), (up,down), (down,up), (down,down); for
photons read up = V, down = H.  Outcomes are encoded +1 for up/V and -1
for down/H, so the correlation function E is the expectation of the
product of the two outcomes.  Joint outcome-pair probabilities are
plain arrays whose last axis holds (p_pp, p_pm, p_mp, p_mm), in the
same order (:func:`joint_distribution`), and :func:`joint_correlation`
reads E off them.

Conventions:

* Spin-1/2 analyzers rotate the measurement basis by half the analyzer
  angle, polarizers by the full angle (:attr:`ParticleKind.angle_scale`).
  These are the unique planar conventions under which both particle
  kinds show strict (anti)correlation at equal analyzer angles together
  with the cosine laws above.  A :class:`StateKind` is its particle and
  its :class:`CorrelationSign`; nothing else tells the four apart.
* The anticorrelated states carry a relative phase of -1 between their
  two product terms, the unique choice (up to a global phase) for which
  the correlation depends only on gamma - delta.
* All angles are radians.  All operations are pure functions; state
  objects are immutable and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CorrelationSign",
    "ParticleKind",
    "StateKind",
    "EntangledState",
    "make_state",
    "analyzer_basis",
    "joint_distribution",
    "joint_correlation",
    "closed_form_correlation",
]

NORMALIZATION_ATOL = 1e-12

_SQRT_HALF = math.sqrt(0.5)


class UsageError(ValueError):
    """An input outside the bounds a function accepts; the CLI exits 2."""


class CorrelationSign(enum.Enum):
    """Selects the sign variant of the inequalities that depend on whether
    equal-angle outcomes are strictly opposite or strictly equal."""

    ANTICORRELATED = "anticorrelated"
    CORRELATED = "correlated"

    @property
    def factor(self) -> int:
        """-1 or +1 such that g = factor * d at a shared analyzer angle."""
        return -1 if self is CorrelationSign.ANTICORRELATED else 1


class ParticleKind(enum.Enum):
    """Physical carrier of the two-level system; it fixes the analyzer
    convention through :attr:`angle_scale`."""

    SPIN_HALF = "spin-half"
    PHOTON = "photon"

    @property
    def angle_scale(self) -> float:
        """Basis rotation per unit analyzer angle: 0.5 for spin, 1.0 for
        photons.  E has period pi / angle_scale in gamma - delta."""
        return 0.5 if self is ParticleKind.SPIN_HALF else 1.0


class StateKind(enum.Enum):
    SPIN_ANTICORRELATED = "spin-anticorrelated"
    SPIN_CORRELATED = "spin-correlated"
    PHOTON_CORRELATED = "photon-correlated"
    PHOTON_ANTICORRELATED = "photon-anticorrelated"

    @property
    def particle(self) -> ParticleKind:
        if self in (StateKind.SPIN_ANTICORRELATED, StateKind.SPIN_CORRELATED):
            return ParticleKind.SPIN_HALF
        return ParticleKind.PHOTON

    @property
    def sign(self) -> CorrelationSign:
        """Whether equal analyzer angles give strictly opposite or strictly
        equal outcomes."""
        if self in (StateKind.SPIN_ANTICORRELATED, StateKind.PHOTON_ANTICORRELATED):
            return CorrelationSign.ANTICORRELATED
        return CorrelationSign.CORRELATED


@dataclass(frozen=True)
class EntangledState:
    """Normalized bipartite state over the ordered product basis.

    ``amplitudes`` holds the four complex coefficients in the basis
    order (up,up), (up,down), (down,up), (down,down).  For the four
    canonical states exactly two amplitudes are nonzero, each of
    magnitude sqrt(1/2).
    """

    kind: StateKind
    amplitudes: np.ndarray

    @property
    def particle(self) -> ParticleKind:
        return self.kind.particle

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError("amplitudes must be a length-4 vector")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= NORMALIZATION_ATOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


_AMPLITUDES = {
    CorrelationSign.ANTICORRELATED: (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0),
    CorrelationSign.CORRELATED: (_SQRT_HALF, 0.0, 0.0, _SQRT_HALF),
}


def make_state(kind: StateKind) -> EntangledState:
    """Build one of the four canonical entangled states."""
    return EntangledState(
        kind=kind, amplitudes=np.array(_AMPLITUDES[kind.sign], dtype=complex)
    )


def analyzer_basis(particle: ParticleKind, angle) -> np.ndarray:
    """Orthonormal (+1, -1) measurement eigenvectors at analyzer angles.

    Spin-1/2: plus = (cos(angle/2), sin(angle/2)).
    Photon:   plus = (cos(angle), sin(angle)).
    The minus eigenvector is the orthogonal completion with determinant
    +1, i.e. (-sin, cos).  The result broadcasts over ``angle`` with
    shape (..., 2, 2), the rows of each 2x2 block being plus and minus,
    so ``plus, minus = analyzer_basis(particle, angle)`` at one angle.
    """
    theta = particle.angle_scale * np.asarray(angle, dtype=np.float64)
    if not np.isfinite(theta).all():
        raise UsageError("analyzer angle must be finite")
    c, s = np.cos(theta), np.sin(theta)
    u = np.empty(theta.shape + (2, 2))
    u[..., 0, 0] = c
    u[..., 0, 1] = s
    u[..., 1, 0] = -s
    u[..., 1, 1] = c
    return u


def _check_joints(p: np.ndarray) -> None:
    # written so that a NaN probability fails both tests
    if not np.all((p >= -NORMALIZATION_ATOL) & (p <= 1.0 + NORMALIZATION_ATOL)):
        raise ValueError("probabilities outside [0, 1]")
    if not np.all(np.abs(p.sum(axis=-1) - 1.0) <= NORMALIZATION_ATOL):
        raise ValueError("probabilities do not sum to 1")


def joint_distribution(state: EntangledState, delta, gamma) -> np.ndarray:
    """Born-rule outcome-pair probabilities for analyzers at delta, gamma.

    Each probability is the squared magnitude of the projection of the
    state onto the tensor product of the corresponding analyzer
    eigenvectors (delta on particle D, gamma on particle G).  ``delta``
    and ``gamma`` broadcast against each other; the result has their
    broadcast shape plus a last axis holding (p_pp, p_pm, p_mp, p_mm).
    Each point is its own 2x2 product, so a broadcast entry is bit for
    bit the result at that point alone.
    """
    # rows of u_* are the (+, -) eigenvectors, so amp[x, y] = <e_x e_y | psi>
    u_d = analyzer_basis(state.particle, delta)
    u_g = analyzer_basis(state.particle, gamma)
    amp = u_d @ state.amplitudes.reshape(2, 2) @ np.swapaxes(u_g, -1, -2)
    p = np.abs(amp) ** 2
    # fused multiply-adds in the 2x2 products leave ~1e-36 dust where the
    # projection cancels exactly; strictly (anti)correlated outcomes at
    # shared angles must have probability exactly 0, and a true probability
    # below 1e-28 is unreachable at any simulable trial count
    p[p < 1e-28] = 0.0
    p = p.reshape(p.shape[:-2] + (4,))
    _check_joints(p)
    return p


def joint_correlation(x):
    """E = p_pp + p_mm - p_mp - p_pm over the last axis of a joints array.

    On a coincidence counts row (n_pp, n_pm, n_mp, n_mm) it is the exact
    numerator n_pp + n_mm - n_mp - n_pm of the estimate.  A single point
    gives a Python float.
    """
    x = np.asarray(x)
    e = x[..., 0] + x[..., 3] - x[..., 2] - x[..., 1]
    return float(e) if e.ndim == 0 else e


def closed_form_correlation(kind: StateKind, delta, gamma):
    """Analytic correlation: -+cos(gamma - delta) for spin pairs,
    +-cos(2(gamma - delta)) for photon pairs (upper sign: anticorrelated).

    ``delta`` and ``gamma`` broadcast against each other; scalar angles
    give a Python float.  A non-finite angle raises UsageError.
    """
    x = 2.0 * kind.particle.angle_scale * (np.asarray(gamma) - np.asarray(delta))
    # math.isfinite keeps the scalar call, which maximize makes per step, cheap
    if not (np.isfinite(x).all() if x.ndim else math.isfinite(x)):
        raise UsageError("analyzer angle must be finite")
    e = kind.sign.factor * np.cos(x)
    return float(e) if e.ndim == 0 else e
