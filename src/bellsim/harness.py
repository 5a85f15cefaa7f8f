"""Finite-statistics coincidence experiments and their analysis.

Simulates runs of a two-analyzer experiment from either an entangled
state (Born-rule sampling) or a hidden-variable model (shared lam per
trial), tabulates the per-settings-pair coincidence counts, and turns
counts into correlation estimates and the four-setting statistic S with
binomial error bars.

Reproducibility contract: trials are generated in fixed blocks of
65536, each block drawing from its own substream spawned from the run
seed.  Results therefore depend only on (source, schedule, n, seed),
never on how blocks might be distributed over workers.  A schedule
holds a power-of-two number of pairs, k = 2^j, so that a trial's pair
is the top j bits of one 16-bit lane of the substream's raw words,
exactly uniform; a Born trial's outcome comes from the rest of its lane
(and one more word if its bucket holds a threshold), and a
hidden-variable block samples lam after its lane words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .inequalities import (
    EmpiricalSource,
    QuantumBornSource,
    QuantumClosedFormSource,
    chsh_s,
    chsh_variants,
    wigner_terms,
)
from .lhv import LhvModel, UsageError, _outcomes
from .qstate import (
    EntangledState,
    StateKind,
    closed_form_correlation,
    joint_correlation,
    joint_distribution,
    make_state,
)

__all__ = [
    "PAIR_LABELS",
    "SINGLET_CHSH_ANGLES",
    "SettingsSchedule",
    "chsh_schedule",
    "TrialLog",
    "run_trials",
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


@dataclass(frozen=True)
class SettingsSchedule:
    """The settings pairs of a run, a power of two of them (1 to 32); every
    trial draws its pair uniformly at random, independently of the source,
    as the top bits of a 16-bit lane of raw words."""

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        k = len(self.pairs)
        if k == 0:
            raise ValueError("schedule needs at least one settings pair")
        _kernels._check_pair_count(k)
        if k & (k - 1):
            raise ValueError(f"settings pair count must be a power of two, got {k}")
        object.__setattr__(
            self, "pairs", tuple((float(d), float(g)) for d, g in self.pairs)
        )


def chsh_schedule(
    delta: float,
    delta_prime: float,
    gamma: float,
    gamma_prime: float,
) -> SettingsSchedule:
    """The four CHSH pairs in role order (dg, dg', d'g, d'g')."""
    return SettingsSchedule(
        pairs=(
            (delta, gamma),
            (delta, gamma_prime),
            (delta_prime, gamma),
            (delta_prime, gamma_prime),
        ),
    )


@dataclass(frozen=True)
class TrialLog:
    """Per-trial settings and +-1 outcomes as one uint8 ``_kernels.row_code``
    per trial, decoded on each read."""

    pairs: tuple[tuple[float, float], ...]
    code: np.ndarray
    source_description: str

    pair_index = property(lambda self: self.code >> 2)
    outcome_d = property(lambda self: _kernels.trial_outcomes(self.code)[0])
    outcome_g = property(lambda self: _kernels.trial_outcomes(self.code)[1])

    def __len__(self):
        return len(self.code)


def _block_slices(n: int):
    for start in range(0, n, BLOCK_SIZE):
        yield start, min(start + BLOCK_SIZE, n)


def _born_tables(state: EntangledState, pairs):
    """The Born cumulative table of the pairs and its bucket table."""
    delta, gamma = np.array(pairs, dtype=np.float64).T
    cum = np.cumsum(joint_distribution(state, delta, gamma)[:, :3], axis=1)
    return cum, _kernels.bucket_table(cum)


def _lanes(raw, m):
    """m uint16 lanes of ceil(m / 4) raw words, little-endian on any machine."""
    return raw(-(-m // 4)).astype("<u8", copy=False).view("<u2")[:m]


def _generate_block(source, schedule, born, child, m):
    """Generate the row codes of one block of m trials from its substream.

    Blocks are self-contained: a block's content depends only on its
    substream and size, so blocks can be computed in any order (or on
    any worker) and assembled into the same log.  Each trial of a
    schedule of 2^j pairs reads one lane, whose top j bits are its pair;
    a Born trial reads its outcome from the rest of it through ``born``,
    the run's ``_born_tables``, and a hidden-variable block samples lam
    after its lanes; with one pair it draws no lanes.  Hidden-variable
    outcomes come from ``lhv._outcomes``, the one evaluator, which raises
    UsageError for a non-finite angle and ValueError for a response
    outside +-1.
    """
    rng = np.random.default_rng(child)
    raw = rng.bit_generator.random_raw
    if born is not None:
        return _kernels.lane_codes(_lanes(raw, m), *born, raw)
    if len(schedule.pairs) == 1:  # one pair holds every trial: no pair bits
        lam = np.asarray(source.sample(rng, m), dtype=np.float64)
        d, g = _outcomes(source, lam, *schedule.pairs[0])
        return _kernels.row_code(0, d < 0, g < 0)
    j = len(schedule.pairs).bit_length() - 1
    idx = (_lanes(raw, m) >> (16 - j)).astype(np.uint8)
    lam = np.asarray(source.sample(rng, m), dtype=np.float64)
    code = np.empty(m, dtype=np.uint8)
    for p, (delta, gamma) in enumerate(schedule.pairs):
        trials = np.flatnonzero(idx == p)
        if len(trials):
            d, g = _outcomes(source, lam[trials], delta, gamma)
            code[trials] = _kernels.row_code(p, d < 0, g < 0)
    return code


def _blocks(source, schedule: SettingsSchedule, n: int, seed: int):
    """The blocks of an n-trial run, in order, as (start, stop, code); the
    bounds on n and seed are checked, and a Born run's tables built, at the call."""
    if n < 1:
        raise UsageError("trials must be >= 1")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    quantum = isinstance(source, EntangledState)
    born = _born_tables(source, schedule.pairs) if quantum else None
    children = np.random.SeedSequence(seed).spawn(math.ceil(n / BLOCK_SIZE))
    return (
        (start, stop, _generate_block(source, schedule, born, child, stop - start))
        for child, (start, stop) in zip(children, _block_slices(n))
    )


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
    blocks = _blocks(source, schedule, n, seed)
    code = np.empty(n, dtype=np.uint8)
    for start, stop, block in blocks:
        code[start:stop] = block

    quantum = isinstance(source, EntangledState)
    description = f"quantum:{source.kind.value}" if quantum else f"lhv:{source.name}"
    return TrialLog(pairs=schedule.pairs, code=code, source_description=description)


def tabulate(log: TrialLog) -> EmpiricalSource:
    """Exact per-pair outcome tallies of a trial log, row i for pair i."""
    counts = np.zeros((len(log.pairs), 4), dtype=np.int64)
    # one decoded chunk at a time: the log is never unpacked whole
    for start in range(0, len(log), _kernels._CHUNK):
        code = log.code[start : start + _kernels._CHUNK]
        d, g = _kernels.trial_outcomes(code)
        counts += _kernels.count_outcomes(code >> 2, d, g, len(log.pairs))
    return EmpiricalSource(log.pairs, counts)


@dataclass(frozen=True)
class PairEstimate:
    label: str
    e: float
    std_error: float
    n: int


def _pair_estimate(label: str, product_sum, n: int) -> tuple[PairEstimate, float]:
    """E = product_sum / n from n trials whose d*g products sum to
    product_sum, with its binomial variance (1 - E^2)/n and error."""
    e = product_sum / n
    variance = (1.0 - e * e) / n
    return PairEstimate(label, e, math.sqrt(variance), n), variance


@dataclass(frozen=True)
class ChshAnalysis:
    per_pair: tuple[PairEstimate, ...]
    s_mean: float
    s_std_error: float
    violated_2sigma: bool
    violated_5sigma: bool


def analyze_chsh(source: EmpiricalSource) -> ChshAnalysis:
    """Correlations and S = E(dg) + E(dg') + E(d'g) - E(d'g') with errors.

    Row i of ``source.counts`` holds role PAIR_LABELS[i].  Per-pair
    variance is the binomial (1 - E^2)/n; the variance of S is their
    sum.  A table without exactly one row per role, or a role whose row
    has zero trials, raises UsageError: an S assembled from missing or
    extra pairs would be meaningless.
    """
    if len(source.counts) != len(PAIR_LABELS):
        raise UsageError(
            f"CHSH analysis needs {len(PAIR_LABELS)} settings pairs, "
            f"got {len(source.counts)}"
        )
    per_pair = []
    variance = 0.0
    for i, label in enumerate(PAIR_LABELS):
        row = source.counts[i]
        total = int(row.sum())
        if total == 0:
            raise UsageError(f"no trials recorded for settings pair {label!r}")
        estimate, var = _pair_estimate(label, joint_correlation(row), total)
        variance += var
        per_pair.append(estimate)
    s_mean = float(chsh_variants([p.e for p in per_pair])[3])
    s_std_error = math.sqrt(variance)
    excess = abs(s_mean) - 2.0
    return ChshAnalysis(
        per_pair=tuple(per_pair),
        s_mean=s_mean,
        s_std_error=s_std_error,
        violated_2sigma=excess > 2.0 * s_std_error,
        violated_5sigma=excess > 5.0 * s_std_error,
    )


# a cap on maximize_chsh's descent sweeps; its 1e-9 rad step floor ends it sooner
_REFINE_ITERS = 200


def maximize_chsh(
    kind: StateKind, coarse_step_deg: float = 15.0
) -> tuple[tuple[float, float, float, float], float]:
    """Locate analyzer angles maximizing |S| for a state's closed form.

    Coarse grid search over all four angles (step 0.5 to 15 degrees; the
    search holds eight m x m float64 arrays for m = 360/step) followed
    by coordinate descent with step halving down to 1e-9 rad.
    Returns ((delta, delta', gamma, gamma'), s_star); the angles are
    normalized so S is positive, and for the spin states s_star is
    2*sqrt(2) to well within 1e-6.
    """
    if not 0.5 <= coarse_step_deg <= 15.0:
        raise UsageError("coarse-step must be in [0.5, 15] degrees")
    step = math.radians(coarse_step_deg)
    grid = np.arange(0.0, 2.0 * math.pi - 1e-12, step)
    corr = closed_form_correlation(kind, grid[:, None], grid[None, :])
    _, (i_d, i_dp, i_g, i_gp) = _kernels.grid_max_abs_chsh(corr)
    angles = np.array([grid[i_d], grid[i_dp], grid[i_g], grid[i_gp]])

    source = QuantumClosedFormSource(kind)
    best = abs(chsh_s(source, *angles))
    for _ in range(_REFINE_ITERS):
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
        half_period = math.pi / (2.0 * kind.particle.angle_scale)
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
    kind: StateKind = StateKind.SPIN_ANTICORRELATED,
) -> list[WignerScanPoint]:
    """Evaluate the three-angle inequality on a theta2 grid.

    The grid spans [theta1, theta3] inclusive with ``steps`` points.
    Joints come from the Born rule for ``kind``, read in the state's own
    sign form.  For the default spin singlet the margin is
    (sin t2 + cos t2 - 1)/4 when theta1 = 0 and theta3 = pi/2: positive
    strictly inside the interval, maximal at pi/4.  Every maximally
    entangled state gives the same curve, with the angles halved for
    photon pairs.  All points come from one broadcast
    :func:`~bellsim.inequalities.wigner_terms` call over the theta2 grid,
    each equal bit for bit to :func:`~bellsim.inequalities.wigner_check`
    at that point.
    """
    if steps < 3:
        raise UsageError("steps must be >= 3")
    source = QuantumBornSource(make_state(kind))
    theta2 = np.linspace(theta1, theta3, steps)
    lhs, rhs = wigner_terms(source, theta1, theta2, theta3, kind.sign)
    return [
        WignerScanPoint(theta2=t, lhs=l, rhs=r, margin=l - r)
        for t, l, r in zip(theta2.tolist(), lhs.tolist(), rhs.tolist())
    ]
