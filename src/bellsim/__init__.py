"""Bell-test toolkit.

Exact quantum predictions for four canonical entangled two-particle
states, deterministic local hidden-variable models, evaluators for the
Bell / CHSH / Wigner family of inequalities, exhaustive enumeration
oracles, and a Monte Carlo coincidence-experiment harness with a CLI.
"""

from ._kernels import backend
from .harness import *
from .inequalities import *
from .lhv import *
from .qstate import *

__version__ = "0.1.0"
