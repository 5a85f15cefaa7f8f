import tracemalloc

import pytest


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
