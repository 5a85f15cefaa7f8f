"""Public-API consistency: every exported name exists, and the package
root re-exports each module's public names as the same objects."""

import importlib

import pytest

import bellsim

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


def test_correlation_sign_has_one_definition():
    # defined in qstate beside StateKind.sign; inequalities and the package
    # root hand out the same class
    from bellsim import inequalities, qstate

    assert inequalities.CorrelationSign is qstate.CorrelationSign
    assert bellsim.CorrelationSign is qstate.CorrelationSign
