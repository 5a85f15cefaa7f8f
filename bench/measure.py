"""Measuring one benchmark run: set-up, timed iterations, traced iterations.

The entry point is ``run.py``, which caps the numpy/BLAS thread pools
before this module imports numpy.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import tracing
import workloads

from bellsim import _kernels, harness

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".bench_out"
SETUP_REPEATS = 7
# A fresh interpreter's set-up: import the CLI and build the workload's
# sources.  The clock starts after interpreter start-up and the numpy
# import: numpy is outside the package, took three quarters of the total
# on a 2-vCPU VM, and its import time there moved by up to half from one
# run to the next, which would hide a change in bellsim's own set-up.
SETUP_CODE = """\
import sys, time
import numpy
t0 = time.perf_counter()
sys.path.insert(0, "src")
import bellsim.cli
from bellsim import lhv, qstate
for spec in sys.argv[1:]:
    kind, name = spec.split(":", 1)
    if kind == "state":
        qstate.make_state(qstate.StateKind(name))
    else:
        lhv.get_model(name)
print(repr(time.perf_counter() - t0))
"""


def tail_index(n: int) -> int:
    """Sorted-sample index reported as wall_s.p90.

    The nearest-rank 90th percentile when at least ten samples lie beyond
    it; otherwise the highest sample with ten beyond it, but never below
    the median.  Below eleven samples no sample has ten beyond it, and the
    nearest-rank 90th percentile is reported (the maximum below ten).
    """
    p90 = math.ceil(0.9 * n) - 1
    if n < 11:
        return p90
    return max(min(p90, n - 11), (n - 1) // 2)


def setup_sample(sources) -> float:
    cmd = [sys.executable, "-c", SETUP_CODE, *sources]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def measure(workload, seed, seconds, sizes, workdir, tracer=None, setup=None) -> dict:
    """Closed loop of iterations for about ``seconds``; checks every one.

    The first iteration is checked but not timed: in a fresh process it
    runs slower than the rest.  Every iteration must reproduce the output
    digests of the first one that passed its checks.  With a ``tracer``,
    timed iterations alternate between untraced and traced, so that both
    kinds meet the same load on the host.  With a ``setup`` list,
    SETUP_REPEATS set-up samples are appended to it, spread over the loop
    for the same reason; their time is left out of the loop's.
    """
    argvs, files = workload.commands(seed, workdir, sizes)
    walls, traced_walls, iterations = [], [], []
    attempted, failed, problems, reference = 0, 0, [], None
    start = None
    setup_time = 0.0
    while True:
        traced = tracer is not None and start is not None and len(traced_walls) < len(walls)
        if traced:
            tracer.iteration += 1
            tracer.install()
        tap = workloads.CountsTap()
        tap.install()
        try:
            t0 = time.perf_counter()
            results = workloads.run_commands(argvs, tap)
            wall = time.perf_counter() - t0
        finally:
            tap.uninstall()
            if traced:
                tracer.uninstall()
        attempted += 1
        found = workload.check(results, sizes)
        if not found:
            digest = workloads.digests(results, files)
            if reference is None:
                reference = digest
            elif digest != reference:
                found.append("outputs differ from those of the first passing iteration")
        if found:
            failed += 1
            problems += found
        if start is None:
            if setup is not None:
                # untimed: bytecode compilation of a fresh checkout
                setup_sample(workload.sources)
            start = time.perf_counter()
            continue
        if traced:
            traced_walls.append(wall)
            iterations.append(tracer.iteration)
        else:
            walls.append(wall)
        elapsed = time.perf_counter() - start - setup_time
        if setup is not None and len(setup) < SETUP_REPEATS and (
            elapsed >= len(setup) * seconds / SETUP_REPEATS
        ):
            t0 = time.perf_counter()
            setup.append(setup_sample(workload.sources))
            setup_time += time.perf_counter() - t0
        if elapsed + statistics.median(walls + traced_walls) > seconds and (
            tracer is None or traced_walls
        ):
            break
    while setup is not None and len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(workload.sources))
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "iterations": iterations,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": reference,
    }


def manifest(args, workload, sizes, workdir) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": _kernels.backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "block_size": harness.BLOCK_SIZE,
        "thread_caps": {
            k: v for k, v in os.environ.items() if k.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))
        },
        "sizes": vars(sizes),
        "argv": workload.commands(args.seed, workdir, sizes)[0],
    }


def workdir_of(workload_name) -> str:
    # relative and fixed, so file paths printed in reports, and with them
    # the output digests, do not depend on where the checkout is
    return f"{OUT_DIR}/work-{workload_name}"


def run(workload_name, seed, seconds, trace, sizes=workloads.FULL) -> tuple[dict, dict]:
    """One benchmark run from the checkout root; returns (result, details)."""
    workload = workloads.WORKLOADS[workload_name]
    workdir = workdir_of(workload_name)
    os.makedirs(workdir, exist_ok=True)
    try:
        if not trace:
            setup = []
            timed = measure(workload, seed, seconds, sizes, workdir, setup=setup)
            walls = sorted(timed["walls"])
            p50 = statistics.median(walls)
            n = len(walls)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "wall_s.p50": (p50, "s"),
                "wall_s.p90": (walls[tail_index(n)], "s"),
                # the fastest iteration: on a shared host, the figure least moved by
                # other tenants' load (ten-run spreads on a 2-vCPU VM of 0.06-0.12,
                # against 0.11-0.21 for the median)
                "wall_s.min": (walls[0], "s"),
                "trials_per_s": (workload.trials(sizes) / p50, "1/s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
                ),
                "ops_ok_ratio": (1.0 - timed["failed"] / timed["attempted"], "ratio"),
            }
            details = {
                "setup_samples": setup,
                "wall_samples": timed["walls"],
                "wall_p90_rank": f"{tail_index(n) + 1} of {n}",
            }
        else:
            tracer = tracing.Tracer()
            timed = measure(workload, seed, seconds, sizes, workdir, tracer=tracer)
            metrics = {
                name: (value, tracing.unit(name))
                for name, value in tracer.layer_metrics(timed["iterations"]).items()
            }
            overhead = statistics.median(timed["traced_walls"]) - statistics.median(
                timed["walls"]
            )
            metrics["trace.overhead_s"] = (overhead, "s")
            spans_path = f"{OUT_DIR}/spans-{workload_name}-seed{seed}.csv"
            tracer.write_spans(spans_path)
            details = {
                "untraced_wall_samples": timed["walls"],
                "traced_wall_samples": timed["traced_walls"],
                "spans": spans_path,
            }
    finally:
        for path in Path(workdir).glob("*"):
            path.unlink()
        Path(workdir).rmdir()

    result = {
        "correct": timed["failed"] == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details.update(digests=timed["digests"], problems=timed["problems"][:20])
    return result, details


def main(args) -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    info = manifest(args, workload, workloads.FULL, workdir_of(args.workload))
    print("manifest " + json.dumps(info), flush=True)
    result, details = run(args.workload, args.seed, args.seconds, args.trace)
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}")
    if "wall_p90_rank" in details:
        print(f"wall_s.p90 is sample {details['wall_p90_rank']} in sorted order")
    for problem in details["problems"]:
        print(f"FAILED: {problem}")
    print("digests " + json.dumps(details["digests"]))
    path = f"{OUT_DIR}/result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"manifest": info, "result": result, **details}, fh, indent=1)
    print(json.dumps(result))
    return 0
