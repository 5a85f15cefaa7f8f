"""Finite-statistics coincidence experiments and their analysis.

Simulates runs of a two-analyzer experiment from either an entangled
state (Born-rule sampling) or a hidden-variable model (shared lam per
trial), tabulates the per-settings-pair coincidence counts, and turns
counts into correlation estimates and the four-setting statistic S with
binomial error bars.

Reproducibility contract: trials are generated in fixed blocks of
65536, each block drawing from its own substream spawned from the run
seed.  Results therefore depend only on (source, schedule, n, seed),
never on how blocks might be distributed over workers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .inequalities import (
    CorrelationSign,
    CorrelationSource,
    EmpiricalSource,
    QuantumClosedFormSource,
    chsh_s,
    wigner_check,
)
from .lhv import LhvModel
from .qstate import (
    EntangledState,
    ParticleKind,
    StateKind,
    closed_form_correlation,
    joint_distribution,
)

__all__ = [
    "PAIR_LABELS",
    "SINGLET_CHSH_ANGLES",
    "SettingsPolicy",
    "SettingsSchedule",
    "chsh_schedule",
    "TrialLog",
    "run_trials",
    "CountsTable",
    "tabulate",
    "PairEstimate",
    "ChshAnalysis",
    "analyze_chsh",
    "maximize_chsh",
    "WignerScanPoint",
    "wigner_scan",
]

BLOCK_SIZE = 1 << 16

# role labels for the four CHSH settings pairs, in schedule order
PAIR_LABELS = ("dg", "dg'", "d'g", "d'g'")

# angles (delta, delta', gamma, gamma') at which the spin singlet reaches
# S = 2*sqrt(2) exactly
SINGLET_CHSH_ANGLES = (0.0, -math.pi / 2, 3 * math.pi / 4, -3 * math.pi / 4)


class SettingsPolicy(enum.Enum):
    ROUND_ROBIN = "round-robin"
    UNIFORM_RANDOM = "uniform"


@dataclass(frozen=True)
class SettingsSchedule:
    """The settings pairs available to a run and how trials pick one."""

    pairs: tuple[tuple[float, float], ...]
    policy: SettingsPolicy = SettingsPolicy.UNIFORM_RANDOM

    def __post_init__(self):
        if len(self.pairs) == 0:
            raise ValueError("schedule needs at least one settings pair")
        object.__setattr__(
            self, "pairs", tuple((float(d), float(g)) for d, g in self.pairs)
        )


def chsh_schedule(
    delta: float,
    delta_prime: float,
    gamma: float,
    gamma_prime: float,
    policy: SettingsPolicy = SettingsPolicy.UNIFORM_RANDOM,
) -> SettingsSchedule:
    """The four CHSH pairs in role order (dg, dg', d'g, d'g')."""
    return SettingsSchedule(
        pairs=(
            (delta, gamma),
            (delta, gamma_prime),
            (delta_prime, gamma),
            (delta_prime, gamma_prime),
        ),
        policy=policy,
    )


@dataclass(frozen=True)
class TrialLog:
    """Per-trial settings choices and +-1 outcome pairs."""

    pairs: tuple[tuple[float, float], ...]
    pair_index: np.ndarray
    outcome_d: np.ndarray
    outcome_g: np.ndarray
    source_description: str

    def __len__(self):
        return len(self.pair_index)

    def records(self):
        """Iterate (pair_index, outcome_d, outcome_g) tuples."""
        for i in range(len(self)):
            yield (
                int(self.pair_index[i]),
                int(self.outcome_d[i]),
                int(self.outcome_g[i]),
            )


def _block_slices(n: int):
    for start in range(0, n, BLOCK_SIZE):
        yield start, min(start + BLOCK_SIZE, n)


def _quantum_cumulative(state: EntangledState, pairs) -> np.ndarray:
    return np.array(
        [
            np.cumsum(joint_distribution(state, d, g).as_array()[:3])
            for d, g in pairs
        ]
    )


def _generate_block(source, schedule, cum, child, start, stop):
    """Generate one block of trials from its own spawned substream.

    Blocks are self-contained: a block's content depends only on its
    substream and index range, so blocks can be computed in any order
    (or on any worker) and assembled into the same log.
    """
    pairs = schedule.pairs
    k = len(pairs)
    rng = np.random.default_rng(child)
    m = stop - start
    if schedule.policy is SettingsPolicy.UNIFORM_RANDOM:
        idx = rng.integers(0, k, size=m)
    else:
        idx = (start + np.arange(m, dtype=np.int64)) % k
    if cum is not None:
        u = rng.random(m)
        d, g = _kernels.sample_outcomes(u, idx, cum)
    else:
        lam = np.asarray(source.sample(rng, m), dtype=np.float64)
        d = np.empty(m, dtype=np.int8)
        g = np.empty(m, dtype=np.int8)
        for p in range(k):
            mask = idx == p
            if mask.any():
                d[mask] = source.response_d(lam[mask], pairs[p][0])
                g[mask] = source.response_g(lam[mask], pairs[p][1])
    return idx, d, g


def run_trials(
    source: EntangledState | LhvModel,
    schedule: SettingsSchedule,
    n: int,
    seed: int,
) -> TrialLog:
    """Simulate n trials; fully reproducible from the seed.

    Quantum sources draw each outcome pair from the Born joint
    distribution of the trial's settings pair; hidden-variable sources
    draw one lam per trial and evaluate both responses on it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pairs = schedule.pairs
    quantum = isinstance(source, EntangledState)
    if quantum:
        cum = _quantum_cumulative(source, pairs)
        description = f"quantum:{source.kind.value}"
    else:
        cum = None
        description = f"lhv:{source.name}"

    pair_index = np.empty(n, dtype=np.int64)
    outcome_d = np.empty(n, dtype=np.int8)
    outcome_g = np.empty(n, dtype=np.int8)

    children = np.random.SeedSequence(seed).spawn(math.ceil(n / BLOCK_SIZE))
    for block, (start, stop) in enumerate(_block_slices(n)):
        idx, d, g = _generate_block(source, schedule, cum, children[block], start, stop)
        pair_index[start:stop] = idx
        outcome_d[start:stop] = d
        outcome_g[start:stop] = g

    return TrialLog(
        pairs=pairs,
        pair_index=pair_index,
        outcome_d=outcome_d,
        outcome_g=outcome_g,
        source_description=description,
    )


@dataclass(frozen=True)
class CountsTable:
    """Coincidence counts (n_pp, n_pm, n_mp, n_mm) per settings pair."""

    pairs: tuple[tuple[float, float], ...]
    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())

    def to_source(self) -> EmpiricalSource:
        return EmpiricalSource(self.pairs, self.counts)


def tabulate(log: TrialLog) -> CountsTable:
    """Exact per-pair outcome tallies of a trial log."""
    counts = _kernels.count_outcomes(
        log.pair_index, log.outcome_d, log.outcome_g, len(log.pairs)
    )
    return CountsTable(pairs=log.pairs, counts=counts)


@dataclass(frozen=True)
class PairEstimate:
    label: str
    e: float
    std_error: float
    n: int


@dataclass(frozen=True)
class ChshAnalysis:
    per_pair: tuple[PairEstimate, ...]
    s_mean: float
    s_std_error: float
    violated_2sigma: bool
    violated_5sigma: bool


def analyze_chsh(
    counts: CountsTable, pair_roles: dict[str, int] | None = None
) -> ChshAnalysis:
    """Correlations and S = E(dg) + E(dg') + E(d'g) - E(d'g') with errors.

    ``pair_roles`` maps each role label in PAIR_LABELS to its row in
    the counts table (identity by default).  Per-pair variance is the
    binomial (1 - E^2)/n; the variance of S is their sum.  A role whose
    row has zero trials is an error: an S assembled from missing pairs
    would be meaningless.
    """
    if pair_roles is None:
        pair_roles = {label: i for i, label in enumerate(PAIR_LABELS)}
    estimates = {}
    variance = 0.0
    for label in PAIR_LABELS:
        row = counts.counts[pair_roles[label]]
        total = int(row.sum())
        if total == 0:
            raise ValueError(f"no trials recorded for settings pair {label!r}")
        e = float((row[0] + row[3] - row[1] - row[2]) / total)
        var = (1.0 - e * e) / total
        variance += var
        estimates[label] = PairEstimate(
            label=label, e=e, std_error=math.sqrt(var), n=total
        )
    s_mean = (
        estimates["dg"].e
        + estimates["dg'"].e
        + estimates["d'g"].e
        - estimates["d'g'"].e
    )
    s_std_error = math.sqrt(variance)
    excess = abs(s_mean) - 2.0
    return ChshAnalysis(
        per_pair=tuple(estimates[label] for label in PAIR_LABELS),
        s_mean=s_mean,
        s_std_error=s_std_error,
        violated_2sigma=excess > 2.0 * s_std_error,
        violated_5sigma=excess > 5.0 * s_std_error,
    )


def maximize_chsh(
    kind: StateKind, coarse_step_deg: float = 15.0, refine_iters: int = 200
) -> tuple[tuple[float, float, float, float], float]:
    """Locate analyzer angles maximizing |S| for a state's closed form.

    Coarse grid search over all four angles (step at most 15 degrees)
    followed by coordinate descent with step halving down to 1e-9 rad.
    Returns ((delta, delta', gamma, gamma'), s_star); the angles are
    normalized so S is positive, and for the spin states s_star is
    2*sqrt(2) to well within 1e-6.
    """
    if not 0.0 < coarse_step_deg <= 15.0:
        raise ValueError("coarse_step_deg must be in (0, 15]")
    step = math.radians(coarse_step_deg)
    grid = np.arange(0.0, 2.0 * math.pi - 1e-12, step)
    corr = closed_form_correlation(kind, grid[:, None], grid[None, :])
    _, (i_d, i_dp, i_g, i_gp) = _kernels.grid_max_abs_chsh(corr)
    angles = np.array([grid[i_d], grid[i_dp], grid[i_g], grid[i_gp]])

    source = QuantumClosedFormSource(kind)
    best = abs(chsh_s(source, *angles))
    for _ in range(refine_iters):
        improved = False
        for i in range(4):
            for move in (step, -step):
                trial = angles.copy()
                trial[i] += move
                value = abs(chsh_s(source, *trial))
                if value > best:
                    best = value
                    angles = trial
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-9:
                break

    # normalize to positive S: shifting both gamma angles by the half
    # period of the correlation law flips the sign of every term
    if chsh_s(source, *angles) < 0.0:
        half_period = (
            math.pi if kind.particle is ParticleKind.SPIN_HALF else math.pi / 2
        )
        angles[2] += half_period
        angles[3] += half_period
    angles = np.mod(angles, 2.0 * math.pi)
    s_star = chsh_s(source, *angles)
    return tuple(float(a) for a in angles), float(s_star)


@dataclass(frozen=True)
class WignerScanPoint:
    theta2: float
    lhs: float
    rhs: float
    margin: float


def wigner_scan(
    theta1: float,
    theta3: float,
    steps: int,
    source: CorrelationSource | None = None,
    sign: CorrelationSign = CorrelationSign.ANTICORRELATED,
) -> list[WignerScanPoint]:
    """Evaluate the three-angle inequality on a theta2 grid.

    The grid spans [theta1, theta3] inclusive with ``steps`` points.
    ``sign`` selects the inequality's sign form and must match the
    source.  The default source is the spin singlet closed form, for
    which the margin is (sin t2 + cos t2 - 1)/4 when theta1 = 0 and
    theta3 = pi/2: positive strictly inside the interval, maximal at
    pi/4.  Every maximally entangled state gives the same curve in its
    own sign form, with the angles halved for photon pairs.
    """
    if steps < 3:
        raise ValueError("steps must be >= 3")
    if source is None:
        source = QuantumClosedFormSource(StateKind.SPIN_ANTICORRELATED)
    points = []
    for theta2 in np.linspace(theta1, theta3, steps):
        report = wigner_check(source, theta1, float(theta2), theta3, sign)
        points.append(
            WignerScanPoint(
                theta2=float(theta2),
                lhs=report.lhs,
                rhs=report.bound,
                margin=report.margin,
            )
        )
    return points
