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
product of the two outcomes.

Conventions:

* Spin-1/2 analyzers rotate the measurement basis by half the analyzer
  angle, polarizers by the full angle.  These are the unique planar
  conventions under which both particle kinds show strict
  (anti)correlation at equal analyzer angles together with the cosine
  laws above.
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
    "ParticleKind",
    "StateKind",
    "EntangledState",
    "JointDistribution",
    "make_state",
    "analyzer_basis",
    "joint_distribution",
    "correlation",
    "closed_form_correlation",
]

NORMALIZATION_ATOL = 1e-12

_SQRT_HALF = math.sqrt(0.5)


class ParticleKind(enum.Enum):
    """Physical carrier of the two-level system.

    The carrier fixes the analyzer convention: spin measurement bases
    rotate by half the analyzer angle, polarization bases by the full
    angle.
    """

    SPIN_HALF = "spin-half"
    PHOTON = "photon"


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
    def anticorrelated(self) -> bool:
        """True when equal analyzer angles give strictly opposite outcomes."""
        return self in (
            StateKind.SPIN_ANTICORRELATED,
            StateKind.PHOTON_ANTICORRELATED,
        )


@dataclass(frozen=True)
class EntangledState:
    """Normalized bipartite state over the ordered product basis.

    ``amplitudes`` holds the four complex coefficients in the basis
    order (up,up), (up,down), (down,up), (down,down).  For the four
    canonical states exactly two amplitudes are nonzero, each of
    magnitude sqrt(1/2).
    """

    kind: StateKind
    particle: ParticleKind
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (4,):
            raise ValueError("amplitudes must be a length-4 vector")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


_AMPLITUDES = {
    StateKind.SPIN_ANTICORRELATED: (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0),
    StateKind.SPIN_CORRELATED: (_SQRT_HALF, 0.0, 0.0, _SQRT_HALF),
    StateKind.PHOTON_CORRELATED: (_SQRT_HALF, 0.0, 0.0, _SQRT_HALF),
    StateKind.PHOTON_ANTICORRELATED: (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0),
}


def make_state(kind: StateKind) -> EntangledState:
    """Build one of the four canonical entangled states."""
    return EntangledState(
        kind=kind,
        particle=kind.particle,
        amplitudes=np.array(_AMPLITUDES[kind], dtype=complex),
    )


def analyzer_basis(
    particle: ParticleKind, angle: float
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal (+1, -1) measurement eigenvectors at an analyzer angle.

    Spin-1/2: plus = (cos(angle/2), sin(angle/2)).
    Photon:   plus = (cos(angle), sin(angle)).
    The minus eigenvector is the orthogonal completion with determinant
    +1, i.e. (-sin, cos).
    """
    if not math.isfinite(angle):
        raise ValueError("analyzer angle must be finite")
    theta = 0.5 * angle if particle is ParticleKind.SPIN_HALF else angle
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c, s]), np.array([-s, c])


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four outcome pairs (+,+), (+,-), (-,+), (-,-)."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        probs = self.as_array()
        if np.any(probs < -NORMALIZATION_ATOL) or np.any(probs > 1.0 + NORMALIZATION_ATOL):
            raise ValueError(f"probabilities outside [0, 1]: {probs}")
        total = float(probs.sum())
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm])

    def probability(self, d: int, g: int) -> float:
        """P(D -> d, G -> g) for outcomes d, g in {+1, -1}."""
        if d == 1:
            return self.p_pp if g == 1 else self.p_pm
        return self.p_mp if g == 1 else self.p_mm

    def correlation(self) -> float:
        """E = p_pp + p_mm - p_mp - p_pm."""
        return self.p_pp + self.p_mm - self.p_mp - self.p_pm


def joint_distribution(
    state: EntangledState, delta: float, gamma: float
) -> JointDistribution:
    """Born-rule outcome-pair probabilities for analyzers at delta, gamma.

    Each probability is the squared magnitude of the projection of the
    state onto the tensor product of the corresponding analyzer
    eigenvectors (delta on particle D, gamma on particle G).
    """
    m = state.amplitudes.reshape(2, 2)
    u_d = np.vstack(analyzer_basis(state.particle, delta))
    u_g = np.vstack(analyzer_basis(state.particle, gamma))
    # rows of u_* are the (+, -) eigenvectors, so amp[x, y] = <e_x e_y | psi>
    amp = u_d @ m @ u_g.T
    p = np.abs(amp) ** 2
    # fused multiply-adds in the 2x2 products leave ~1e-36 dust where the
    # projection cancels exactly; strictly (anti)correlated outcomes at
    # shared angles must have probability exactly 0, and a true probability
    # below 1e-28 is unreachable at any simulable trial count
    p[p < 1e-28] = 0.0
    return JointDistribution(
        p_pp=float(p[0, 0]),
        p_pm=float(p[0, 1]),
        p_mp=float(p[1, 0]),
        p_mm=float(p[1, 1]),
    )


def correlation(state: EntangledState, delta: float, gamma: float) -> float:
    """Expectation of the product of the two +-1 outcomes."""
    return joint_distribution(state, delta, gamma).correlation()


def closed_form_correlation(kind: StateKind, delta, gamma):
    """Analytic correlation: -+cos(gamma - delta) for spin pairs,
    +-cos(2(gamma - delta)) for photon pairs (upper sign: anticorrelated).

    ``delta`` and ``gamma`` broadcast against each other; scalar angles
    give a Python float.
    """
    mult = 1.0 if kind.particle is ParticleKind.SPIN_HALF else 2.0
    base = np.cos(mult * (np.asarray(gamma) - np.asarray(delta)))
    e = -base if kind.anticorrelated else base
    return float(e) if e.ndim == 0 else e
