import tracemalloc

import numpy as np
import pytest

from bellsim.lhv import LhvModel


@pytest.fixture
def traced_peak():
    """Run a call and return its result and the peak memory it allocated,
    numpy's buffers included (numpy reports them to tracemalloc)."""

    def measure(call):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def bad_tail():
    """A model whose response_d returns ``bad`` above lam = 0.995, past the
    last point its construction probes (0.9923), so only the evaluations
    that follow can find it; stored as int8, a 255 would read as -1."""

    def make(bad):
        return LhvModel(
            name="bad_tail",
            pdf=lambda lam: np.ones(np.shape(lam)),
            sample=lambda rng, n: rng.uniform(0.0, 1.0, n),
            response_d=lambda lam, angle: np.where(lam < 0.995, 1, bad),
            response_g=lambda lam, angle: np.ones(np.shape(lam), dtype=np.int8),
            support=(0.0, 1.0),
        )

    return make
