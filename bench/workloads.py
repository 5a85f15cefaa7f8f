"""The two bellsim benchmark workloads and the checks on their outputs.

A workload is a fixed sequence of ``bellsim`` commands, each run in this
process through ``bellsim.cli.main(argv)``.  The benchmark seed reaches
the program only as ``--seed`` on those command lines, so every
iteration of a run must produce the same outputs.

Each iteration's outputs are checked (a failed check fails the
iteration) and digested with SHA-256: every command's stdout, every
counts table ``harness.tabulate`` returns and every file a command
writes.

Why each workload exists.  Each of the program's four hot spots runs in
exactly one workload, and the other workload is its bypass control: a
change to one hot spot should move its own workload and leave the other
flat.

* ``born-csv`` is Born sampling and CSV I/O.  Its 10M-trial ``chsh-sim``
  (no files) is almost all ``_kernels.sample_outcomes``, the per-block
  draws and tabulation; 10M is not a multiple of ``harness.BLOCK_SIZE``,
  so the partial last block runs too.  Its 500k-trial round trip spends
  about 90% of its time in the row loops of ``cli.write_trials_csv`` and
  ``cli.read_trials_csv``, writing and then reading the same 5 MB file,
  so speeding one direction at the cost of the other shows, and the
  reader's Python lists give it a memory profile of its own.  It never
  runs LHV, grid-search or Wigner code.
* ``lhv-explore`` is LHV simulation and the trial-free explorations.  Its
  2.5M-trial ``chsh-sim`` and 1M-draw ``lhv-sim`` of the
  ``quantum_mimic_attempt`` model spend about half their time in the
  model's inverse-CDF sampler and the rest in the per-pair mask loop and
  the responses.  Its ``maximize`` (a 72^4-point grid search),
  ``wigner-scan`` (~6000 scalar ``qstate.joint_distribution`` calls) and
  65536-node quadrature are the only callers of ``qstate`` and
  ``inequalities``.  It scans the singlet only, whose Wigner margins are
  right at this commit.  It never calls the Born sampler or CSV I/O.

The first design had four workloads, the two halves of each of these,
at larger sizes.  On a 2-vCPU VM whose speed swings by up to 2x for
seconds to minutes, runs short enough for four workloads to fit the time
budget spread too far from run to run; two workloads with twice the run
length each, and iterations of about two seconds, steady the medians.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bellsim import cli, harness

SQRT8 = 2.0 * math.sqrt(2.0)
# largest three-angle margin of the singlet for theta1 = 0, theta3 = 90 deg,
# reached at theta2 = 45 deg: (sin t + cos t - 1)/4 there
WIGNER_MAX_MARGIN = (math.sqrt(2.0) - 1.0) / 4.0
SIGMAS = 5.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is what the benchmark measures."""

    born_trials: int = 10_000_000
    csv_trials: int = 500_000
    lhv_trials: int = 2_500_000
    lhv_sim_trials: int = 1_000_000
    coarse_step: str = "5"
    scan_steps: int = 2001
    explore_trials: int = 100_000
    explore_nodes: int = 65536


FULL = Sizes()


@dataclass
class StepResult:
    argv: list[str]
    code: int
    stdout: str
    stderr: str
    tables: list[np.ndarray]  # counts tables harness.tabulate returned


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, workdir, sizes) -> (argv of each command, files they write)
    commands: Callable[[int, str, Sizes], tuple[list[list[str]], list[str]]]
    check: Callable[[list[StepResult], Sizes], list[str]]
    trials: Callable[[Sizes], int]  # trials one iteration puts through
    sources: tuple[str, ...]  # "state:<kind>" or "model:<name>", built at set-up


class CountsTap:
    """Keeps a copy of every counts table harness.tabulate returns."""

    def __init__(self):
        self.tables = []
        self._original = None

    def install(self):
        self._original = original = harness.tabulate

        def tabulate(log):
            table = original(log)
            self.tables.append(table.counts.copy())
            return table

        harness.tabulate = tabulate

    def uninstall(self):
        harness.tabulate = self._original


def run_commands(argvs, tap: CountsTap) -> list[StepResult]:
    """Run each command through cli.main; stop at the first that fails."""
    results = []
    for argv in argvs:
        tap.tables = []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # an escaped error fails the iteration, not the run
                traceback.print_exc()
                code = -1
        results.append(StepResult(argv, code, out.getvalue(), err.getvalue(), tap.tables))
        if code != 0:
            break
    return results


def digests(results: list[StepResult], files: list[str]) -> dict[str, str]:
    out = {}
    for i, r in enumerate(results):
        out[f"{i}.{r.argv[0]}.stdout"] = hashlib.sha256(r.stdout.encode()).hexdigest()
        for j, table in enumerate(r.tables):
            data = np.ascontiguousarray(table, dtype="<i8").tobytes()
            out[f"{i}.{r.argv[0]}.counts{j}"] = hashlib.sha256(data).hexdigest()
    for path in files:
        out[path] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return out


# --- parsing the program's stdout ---------------------------------------------

_S_LINE = re.compile(r"^S = ([-+]?[\d.]+) \+- ([\d.]+)", re.M)
_E_LINE = re.compile(r"\) = ([-+]?[\d.]+) \+- ([\d.]+)  \(n=\d+\)$", re.M)
_QUAD_LINE = re.compile(r"^quadrature \(\d+ nodes\): ([-+]?[\d.]+)$", re.M)
_S_STAR = re.compile(r"^s_star = ([-+]?[\d.]+)$", re.M)


def _match(pattern, text, what):
    m = pattern.search(text)
    if m is None:
        raise ValueError(f"no {what} in output")
    return tuple(float(g) for g in m.groups())


def _exit_codes(results, expected) -> list[str]:
    problems = [
        f"{r.argv[0]} exited {r.code}: {r.stderr.strip()[-300:]}"
        for r in results if r.code != 0
    ]
    if not problems and len(results) != expected:
        problems.append(f"ran {len(results)} of {expected} commands")
    return problems


def _born_s(result) -> list[str]:
    s, sigma = _match(_S_LINE, result.stdout, "S line")
    if abs(s - SQRT8) > SIGMAS * sigma:
        return [f"S = {s} +- {sigma} is not within {SIGMAS} sigma of 2*sqrt(2)"]
    return []


def _lhv_s(result) -> list[str]:
    s, sigma = _match(_S_LINE, result.stdout, "S line")
    if abs(s) > 2.0 + SIGMAS * sigma:
        return [f"LHV run gave |S| = {abs(s)} +- {sigma}, above 2 + {SIGMAS} sigma"]
    return []


def _mc_vs_quadrature(result) -> list[str]:
    e, sigma = _match(_E_LINE, result.stdout, "Monte Carlo E line")
    (quad,) = _match(_QUAD_LINE, result.stdout, "quadrature line")
    if abs(e - quad) > SIGMAS * sigma:
        return [f"Monte Carlo E = {e} +- {sigma} is not within {SIGMAS} sigma "
                f"of the quadrature value {quad}"]
    return []


def _checked(expected, *checks):
    """A workload check: every command exits 0, then each check holds."""

    def check(results, sizes):
        problems = _exit_codes(results, expected)
        if problems:
            return problems
        for fn in checks:
            try:
                problems += fn(results, sizes)
            except ValueError as exc:
                problems.append(str(exc))
        return problems

    return check


def _same_tables(writer, reader) -> list[str]:
    written, read = writer.tables, reader.tables
    if len(written) != 1 or len(read) != 1:
        return ["expected one counts table from each command"]
    if not np.array_equal(written[0], read[0]):
        return ["counts table from analyze differs from the one chsh-sim tabulated"]
    return []


def _wigner_scan(result, steps) -> list[str]:
    lines = result.stdout.splitlines()
    if not lines or lines[0] != "theta2_deg,lhs,rhs,margin":
        return ["scan CSV header missing"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows.shape != (steps, 4):
        return [f"scan has shape {rows.shape}, expected ({steps}, 4)"]
    problems = []
    best = int(np.argmax(rows[:, 3]))
    if abs(rows[best, 3] - WIGNER_MAX_MARGIN) > 1e-9 or abs(rows[best, 0] - 45.0) > 1e-9:
        problems.append(
            f"largest margin {rows[best, 3]} at theta2 = {rows[best, 0]}, "
            f"expected {WIGNER_MAX_MARGIN} at 45"
        )
    if not np.all(rows[1:-1, 3] > 0.0):
        problems.append("an interior scan point does not violate the inequality")
    return problems


def _s_star(result) -> list[str]:
    (s_star,) = _match(_S_STAR, result.stdout, "s_star line")
    if abs(s_star - SQRT8) > 1e-6:
        return [f"s_star = {s_star} is not within 1e-6 of 2*sqrt(2)"]
    return []


# --- the workloads ---------------------------------------------------------------


def _born_csv(seed, workdir, sizes):
    trials, report, report2 = (
        f"{workdir}/{n}" for n in ("trials.csv", "report.json", "report2.json")
    )
    return [
        ["chsh-sim", "--state", "spin-anticorrelated", "--angles", "0,-90,135,-135",
         "--trials", str(sizes.born_trials), "--seed", str(seed)],
        ["chsh-sim", "--state", "spin-anticorrelated", "--trials", str(sizes.csv_trials),
         "--seed", str(seed), "--emit-trials", trials, "--out", report],
        ["analyze", trials, "--out", report2],
    ], [trials, report, report2]


def _lhv_explore(seed, workdir, sizes):
    return [
        ["chsh-sim", "--model", "quantum_mimic_attempt",
         "--trials", str(sizes.lhv_trials), "--seed", str(seed)],
        ["lhv-sim", "--model", "quantum_mimic_attempt", "--gamma", "22.5",
         "--trials", str(sizes.lhv_sim_trials), "--seed", str(seed)],
        ["maximize", "--coarse-step", sizes.coarse_step],
        ["wigner-scan", "--steps", str(sizes.scan_steps)],
        ["lhv-sim", "--model", "quantum_mimic_attempt", "--gamma", "22.5",
         "--trials", str(sizes.explore_trials), "--nodes", str(sizes.explore_nodes),
         "--seed", str(seed)],
    ], []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="born-csv",
            why="Born sampling and tabulation at 10M trials, then a 500k-trial CSV write "
                "and read; runs no LHV, grid or Wigner code, so it is their bypass control",
            commands=_born_csv,
            check=_checked(
                3,
                lambda r, s: _born_s(r[0]),
                lambda r, s: _born_s(r[1]),
                lambda r, s: _same_tables(r[1], r[2]),
            ),
            trials=lambda s: s.born_trials + s.csv_trials,
            sources=("state:spin-anticorrelated",),
        ),
        Workload(
            name="lhv-explore",
            why="LHV inverse-CDF sampling and responses, grid search, Wigner scan and "
                "quadrature; never calls the Born sampler or CSV I/O, so it is their "
                "bypass control",
            commands=_lhv_explore,
            check=_checked(
                5,
                lambda r, s: _lhv_s(r[0]),
                lambda r, s: _mc_vs_quadrature(r[1]),
                lambda r, s: _s_star(r[2]),
                lambda r, s: _wigner_scan(r[3], s.scan_steps),
                lambda r, s: _mc_vs_quadrature(r[4]),
            ),
            trials=lambda s: s.lhv_trials + s.lhv_sim_trials + s.explore_trials,
            sources=("model:quantum_mimic_attempt", "state:spin-anticorrelated"),
        ),
    )
}
