"""Public-API consistency: every exported name exists, and the package
root re-exports each module's public names as the same objects."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import bellsim

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

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


def test_readme_names_exist():
    # every backticked module.name in the README resolves, so a deleted
    # function cannot leave a stale name behind
    dotted = re.compile(
        r"(?<![\w./])(?:bellsim\.)?(_kernels|harness|cli|lhv|qstate|inequalities)"
        r"\.(\w+(?:\.\w+)*)"
    )
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"(?ms)^```.*?^```", "", text))
    names = {m.groups() for span in spans for m in dotted.finditer(span)}
    assert len(names) >= 10
    missing = []
    for module, path in sorted(names):
        obj = importlib.import_module(f"bellsim.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, missing)
        if obj is missing:
            missing.append(f"{module}.{path}")
    assert missing == []


def test_every_kernel_has_a_caller():
    # each public kernel is named in the package or the benchmark outside
    # _kernels.py, so no kernel outlives its last caller
    from bellsim import _kernels

    files = [*(ROOT / "src" / "bellsim").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    text = "\n".join(
        path.read_text(encoding="utf-8") for path in files if path.name != "_kernels.py"
    )
    uncalled = [name for name in _kernels.__all__ if not re.search(rf"\b{name}\b", text)]
    assert uncalled == []


def test_correlation_sign_has_one_definition():
    # defined in qstate beside StateKind.sign; inequalities and the package
    # root hand out the same class
    from bellsim import inequalities, qstate

    assert inequalities.CorrelationSign is qstate.CorrelationSign
    assert bellsim.CorrelationSign is qstate.CorrelationSign


def test_benchmark_kernel_coupling_points():
    # bench/test_bench.py replaces count_outcomes with a function of
    # (pair_index, d, g, n_pairs), and bench/tracing.py reads that call's
    # first three positional arguments and unpacks sample_outcomes' result
    from bellsim import _kernels

    params = list(inspect.signature(_kernels.count_outcomes).parameters)
    assert params == ["pair_index", "d", "g", "n_pairs"]
    result = _kernels.sample_outcomes(
        np.array([0.1, 0.9]), np.array([0, 0]), np.array([[0.25, 0.5, 0.75]])
    )
    assert isinstance(result, tuple) and len(result) == 2
    d, g = result
    assert d.tolist() == [1, -1] and g.tolist() == [1, -1]


def test_trial_log_holds_one_byte_per_trial():
    # the benchmark's born-csv peak memory rests on this: a four-pair log is
    # its uint8 row codes and nothing else
    from bellsim import harness

    n = 70_001
    schedule = harness.chsh_schedule(*harness.SINGLET_CHSH_ANGLES)
    singlet = bellsim.make_state(bellsim.StateKind.SPIN_ANTICORRELATED)
    log = harness.run_trials(singlet, schedule, n, seed=1)
    assert log.code.dtype == np.uint8 and log.code.nbytes == n == len(log)


def test_tabulate_counts_chunk_by_chunk(monkeypatch):
    # bench/test_bench.py replaces count_outcomes; tabulate hands it one
    # decoded slice of at most _CHUNK trials at a time, so no unpacked
    # array of the whole log is ever built
    from bellsim import _kernels, harness

    sizes = []
    original = _kernels.count_outcomes

    def spy(pair_index, d, g, n_pairs):
        sizes.append({len(pair_index), len(d), len(g)})
        return original(pair_index, d, g, n_pairs)

    n = 2 * _kernels._CHUNK + 5
    schedule = harness.chsh_schedule(*harness.SINGLET_CHSH_ANGLES)
    singlet = bellsim.make_state(bellsim.StateKind.SPIN_ANTICORRELATED)
    log = harness.run_trials(singlet, schedule, n, seed=1)
    monkeypatch.setattr(_kernels, "count_outcomes", spy)
    assert harness.tabulate(log).counts.sum() == n
    assert sizes == [{_kernels._CHUNK}, {_kernels._CHUNK}, {5}]


def test_usage_error_has_one_definition(capsys, monkeypatch):
    # bench/test_bench.py raises cli.UsageError and expects exit 2; the
    # library raises the same class, public as bellsim.UsageError
    from bellsim import cli, lhv

    assert cli.UsageError is bellsim.UsageError is lhv.UsageError
    assert issubclass(bellsim.UsageError, ValueError)

    def rejects(args):
        raise cli.UsageError("rejected")

    monkeypatch.setattr(cli, "cmd_enumerate", rejects)
    assert cli.main(["enumerate"]) == 2
    assert capsys.readouterr().err == "error: rejected\n"


def test_every_chsh_sum_reads_chsh_variants(monkeypatch):
    # the CHSH sign pattern is written once; each S reader must go through it
    from bellsim import _kernels, harness, inequalities

    calls = []
    original = inequalities.chsh_variants

    def spy(e):
        calls.append(e)
        return original(e)

    monkeypatch.setattr(inequalities, "chsh_variants", spy)
    monkeypatch.setattr(harness, "chsh_variants", spy)
    monkeypatch.setattr(_kernels, "chsh_variants", spy)
    source = inequalities.QuantumClosedFormSource(
        bellsim.StateKind.SPIN_ANTICORRELATED
    )
    angles = harness.SINGLET_CHSH_ANGLES
    counts = inequalities.EmpiricalSource(
        harness.chsh_schedule(*angles).pairs, np.full((4, 4), 5)
    )
    readers = {
        "chsh_s": lambda: inequalities.chsh_s(source, *angles),
        "chsh_d3": lambda: inequalities.chsh_d3(source, *angles),
        "chsh_d4": lambda: inequalities.chsh_d4(source, *angles),
        "Quartet.s_value": lambda: inequalities.enumerate_quartets()[0].s_value,
        "quartet_mixture_s": lambda: inequalities.quartet_mixture_s(
            np.full(16, 1 / 16)
        ),
        "analyze_chsh": lambda: harness.analyze_chsh(counts),
        "maximize_chsh": lambda: harness.maximize_chsh(source.kind),
        "grid_max_abs_chsh": lambda: _kernels.grid_max_abs_chsh(np.eye(3)),
    }
    for name, read in readers.items():
        calls.clear()
        read()
        assert calls, f"{name} does not call chsh_variants"


def test_every_response_call_goes_through_lhv_outcomes():
    # a model's responses are evaluated, and checked, in one place
    from bellsim import harness, inequalities, lhv

    callers = []
    base = lhv.sign_model()

    def recording(response):
        def respond(lam, angle):
            callers.append(inspect.currentframe().f_back.f_code)
            return response(lam, angle)

        return respond

    def build():
        return lhv.LhvModel(
            name="recorded",
            pdf=base.pdf,
            sample=base.sample,
            response_d=recording(base.response_d),
            response_g=recording(base.response_g),
            support=base.support,
        )

    model = build()
    schedule = harness.chsh_schedule(*harness.SINGLET_CHSH_ANGLES)
    evaluators = {
        "LhvModel": build,
        "quadrature_correlation": lambda: lhv.quadrature_correlation(model, 0.1, 0.7),
        "LhvSource.joints": lambda: inequalities.LhvSource(model).joints(0.1, 0.7),
        "run_trials": lambda: harness.run_trials(model, schedule, 1000, seed=1),
        "estimate_correlation": lambda: lhv.estimate_correlation(
            model, 0.1, 0.7, 1000, seed=1
        ),
    }
    for name, evaluate in evaluators.items():
        callers.clear()
        evaluate()
        assert callers, f"{name} evaluates no response"
        others = {code.co_name for code in callers if code is not lhv._outcomes.__code__}
        assert others == set(), f"{name} calls responses outside lhv._outcomes"


def test_inequality_report_holds_only_what_is_read():
    import dataclasses

    from bellsim import inequalities

    fields = tuple(f.name for f in dataclasses.fields(bellsim.InequalityReport))
    assert fields == ("name", "lhs", "bound")
    base = inequalities.CorrelationSource
    sources = [base, *base.__subclasses__()]
    assert [cls.__name__ for cls in sources if hasattr(cls, "describe")] == []
