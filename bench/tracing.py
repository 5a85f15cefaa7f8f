"""Spans and exact counts around the public functions of each bellsim module.

The tracer wraps functions from outside the package: it replaces a module
attribute with a wrapper that records a span (name, start, end, parent
span, iteration) and, for some layers, exact counts of the work done.  A
function is wrapped under every name a caller can look it up by, because
modules import each other's functions by name: ``harness`` calls its own
``wigner_check`` and ``joint_distribution`` globals, and ``inequalities``
calls its own ``joint_distribution``.  Patching only the defining module
would miss those calls.

Spans stay in memory until the run ends.  The ``bytes_computed`` counts
are computed from the array sizes and dtypes at the call boundary
(arguments read plus results written); they are not measured traffic.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import statistics
import sys
import time
from collections import defaultdict

from bellsim import _kernels, cli, harness, inequalities, lhv, qstate

_MODULES = {
    "cli": cli,
    "harness": harness,
    "_kernels": _kernels,
    "lhv": lhv,
    "qstate": qstate,
    "inequalities": inequalities,
}


def _arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _nbytes(*arrays) -> int:
    return sum(int(a.nbytes) for a in arrays)


def _run_trials_counts(fn, args, kwargs, result):
    n = int(_arg(fn, args, kwargs, "n"))
    return {"trials": n, "blocks": math.ceil(n / harness.BLOCK_SIZE)}


def _sample_outcomes_counts(fn, args, kwargs, result):
    return {"calls": 1, "bytes_computed": _nbytes(*args, *result)}


def _count_outcomes_counts(fn, args, kwargs, result):
    return {"bytes_computed": _nbytes(*args[:3], result)}


def _grid_counts(fn, args, kwargs, result):
    corr = args[0]
    points = corr.shape[0] ** 4
    # one float64 value of S per grid point, plus the correlation matrix read
    return {"points": points, "bytes_computed": _nbytes(corr) + 8 * points}


# (module, attribute, span name, counter).  Span names are the metric
# prefixes; the _kernels module reports as "kernels" because a metric
# name must start with a letter or digit.
LAYERS = (
    ("cli", "main", "cli.main", None),
    ("cli", "write_trials_csv", "cli.write_trials_csv",
     lambda fn, a, k, r: {"bytes": os.path.getsize(_arg(fn, a, k, "path"))}),
    ("cli", "read_trials_csv", "cli.read_trials_csv",
     lambda fn, a, k, r: {"rows": len(r)}),
    ("harness", "run_trials", "harness.run_trials", _run_trials_counts),
    ("harness", "tabulate", "harness.tabulate", None),
    ("harness", "analyze_chsh", "harness.analyze_chsh", None),
    ("harness", "maximize_chsh", "harness.maximize_chsh", None),
    ("harness", "wigner_scan", "harness.wigner_scan",
     lambda fn, a, k, r: {"points": len(r)}),
    ("_kernels", "sample_outcomes", "kernels.sample_outcomes", _sample_outcomes_counts),
    ("_kernels", "count_outcomes", "kernels.count_outcomes", _count_outcomes_counts),
    ("_kernels", "grid_max_abs_chsh", "kernels.grid_max_abs_chsh", _grid_counts),
    ("lhv", "get_model", "lhv.get_model", None),
    ("lhv", "estimate_correlation", "lhv.estimate_correlation", None),
    ("lhv", "quadrature_correlation", "lhv.quadrature_correlation",
     lambda fn, a, k, r: {"nodes": int(_arg(fn, a, k, "nodes"))}),
    ("qstate", "joint_distribution", "qstate.joint_distribution",
     lambda fn, a, k, r: {"calls": 1}),
    ("qstate", "make_state", "qstate.make_state", None),
    ("inequalities", "wigner_check", "inequalities.wigner_check",
     lambda fn, a, k, r: {"calls": 1}),
)

# spans opened on the callables of the models that lhv.get_model returns
MODEL_SPANS = (
    ("lhv.sample", {"sample": lambda a: {"draws": int(a[1])}}),
    ("lhv.response", {
        "response_d": lambda a: {"evals": int(a[0].size)},
        "response_g": lambda a: {"evals": int(a[0].size)},
    }),
)

COUNTERS = {
    "cli.write_trials_csv": ("bytes",),
    "cli.read_trials_csv": ("rows",),
    "harness.run_trials": ("trials", "blocks"),
    "harness.wigner_scan": ("points",),
    "kernels.sample_outcomes": ("calls", "bytes_computed"),
    "kernels.count_outcomes": ("bytes_computed",),
    "kernels.grid_max_abs_chsh": ("points", "bytes_computed"),
    "lhv.sample": ("draws",),
    "lhv.response": ("evals",),
    "lhv.quadrature_correlation": ("nodes",),
    "qstate.joint_distribution": ("calls",),
    "inequalities.wigner_check": ("calls",),
}

SPAN_NAMES = tuple(layer[2] for layer in LAYERS) + tuple(n for n, _ in MODEL_SPANS)


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.s", f"{span}.self_s"]
        names += [f"{span}.{c}" for c in COUNTERS.get(span, ())]
    return names


def unit(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[1]
    if suffix in ("s", "self_s"):
        return "s"
    return "bytes" if suffix.startswith("bytes") else "count"


class Tracer:
    """In-memory spans and per-iteration counts; install() patches the
    package and uninstall() restores every attribute it replaced."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, iteration]
        self.counts = defaultdict(int)  # (iteration, metric) -> count
        self.iteration = -1
        self._stack = []
        self._patched = []

    def _span(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.iteration]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[(self.iteration, f"{name}.{key}")] += value
            return result

        return traced

    def _wrap_model(self, model):
        for name, counters in MODEL_SPANS:
            for attr, counter in counters.items():
                fn = getattr(model, attr)
                wrapped = self._span(name, fn, lambda a, k, r, c=counter: c(a))
                # LhvModel is frozen; replacing the callables after
                # construction skips re-running its validation
                object.__setattr__(model, attr, wrapped)
        return model

    def _wrapping_models(self, get_model):
        @functools.wraps(get_model)
        def traced_get_model(*args, **kwargs):
            return self._wrap_model(get_model(*args, **kwargs))

        return traced_get_model

    def install(self):
        packages = [m for n, m in sys.modules.items() if n.split(".")[0] == "bellsim"]
        for module_key, attr, name, counter in LAYERS:
            original = getattr(_MODULES[module_key], attr)
            bound = (
                None if counter is None
                else functools.partial(counter, original)
            )
            wrapped = self._span(name, original, bound)
            if name == "lhv.get_model":
                wrapped = self._wrapping_models(wrapped)
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        times = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                times[parent] -= end - start
        return times

    def layer_metrics(self, iterations) -> dict[str, float]:
        """Median over the given iterations of each layer's busy time,
        self time and counts."""
        per_iteration = defaultdict(lambda: defaultdict(float))
        for (name, start, end, _, it), self_s in zip(self.spans, self.self_times()):
            per_iteration[it][f"{name}.s"] += end - start
            per_iteration[it][f"{name}.self_s"] += self_s
        for (it, metric), value in self.counts.items():
            per_iteration[it][metric] += value
        return {
            metric: statistics.median(per_iteration[it][metric] for it in iterations)
            for metric in layer_metric_names()
        }

    def write_spans(self, path):
        """One CSV row per span; times are seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,iteration,name,start_s,end_s,self_s\n")
            for i, ((name, start, end, parent, it), self_s) in enumerate(
                zip(self.spans, self.self_times())
            ):
                fh.write(
                    f"{i},{parent},{it},{name},{start - origin:.9f},"
                    f"{end - origin:.9f},{self_s:.9f}\n"
                )
