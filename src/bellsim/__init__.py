"""Bell-test toolkit.

Exact quantum predictions for four canonical entangled two-particle
states, deterministic local hidden-variable models, evaluators for the
Bell / CHSH / Wigner family of inequalities, exhaustive enumeration
oracles, and a Monte Carlo coincidence-experiment harness with a CLI.
"""

from ._kernels import backend
from .harness import (
    PAIR_LABELS,
    SINGLET_CHSH_ANGLES,
    ChshAnalysis,
    CountsTable,
    PairEstimate,
    SettingsPolicy,
    SettingsSchedule,
    TrialLog,
    WignerScanPoint,
    analyze_chsh,
    chsh_schedule,
    maximize_chsh,
    run_trials,
    tabulate,
    wigner_scan,
)
from .inequalities import (
    VIOLATION_TOLERANCE,
    CorrelationSource,
    EmpiricalSource,
    InequalityReport,
    JointUnavailableError,
    LhvSource,
    Quartet,
    QuantumBornSource,
    QuantumClosedFormSource,
    Sextet,
    SextetMixtureSource,
    bell_d1,
    chsh_d3,
    chsh_d4,
    chsh_s,
    enumerate_quartets,
    enumerate_sextets,
    quartet_mixture_s,
    wigner_check,
)
from .lhv import (
    CorrelationEstimate,
    LhvModel,
    UnboundedSupportError,
    builtin_models,
    constant_model,
    estimate_correlation,
    get_model,
    quadrature_correlation,
    quantum_mimic_attempt,
    sample_pair,
    sign_model,
)
from .qstate import (
    CorrelationSign,
    EntangledState,
    JointDistribution,
    ParticleKind,
    StateKind,
    analyzer_basis,
    closed_form_correlation,
    correlation,
    joint_distribution,
    make_state,
)

__version__ = "0.1.0"
