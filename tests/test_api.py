"""Public-API consistency: every exported name exists, and the package
root re-exports each module's public names as the same objects."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import bellsim

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

MODULES = ["_kernels", "cli", "harness", "inequalities", "lhv", "qstate"]
REEXPORTED = ["harness", "inequalities", "lhv", "qstate"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"bellsim.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", REEXPORTED)
def test_package_reexports_module_api(name):
    module = importlib.import_module(f"bellsim.{name}")
    differ = [
        attr
        for attr in module.__all__
        if getattr(bellsim, attr, None) is not getattr(module, attr)
    ]
    assert differ == []


def test_benchmark_traced_names_exist():
    # bench/tracing.py wraps these functions by name; a missing one breaks
    # traced benchmark runs
    spec = importlib.util.spec_from_file_location("bellsim_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in tracing.LAYERS
        if not hasattr(importlib.import_module(f"bellsim.{module}"), attr)
    ]
    assert missing == []


def test_correlation_sign_has_one_definition():
    # defined in qstate beside StateKind.sign; inequalities and the package
    # root hand out the same class
    from bellsim import inequalities, qstate

    assert inequalities.CorrelationSign is qstate.CorrelationSign
    assert bellsim.CorrelationSign is qstate.CorrelationSign
