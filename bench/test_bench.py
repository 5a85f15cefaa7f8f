"""Tests of the benchmark itself, at tiny problem sizes.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from bellsim import _kernels, cli  # noqa: E402

TINY = workloads.Sizes(
    born_trials=100_003,  # not a multiple of the block size
    csv_trials=5_000,
    lhv_trials=100_003,
    lhv_sim_trials=20_000,
    coarse_step="15",
    scan_steps=201,
    explore_trials=10_000,
    explore_nodes=4096,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _one_iteration(name, workdir):
    return measure.measure(workloads.WORKLOADS[name], 5, 0.0, TINY, str(workdir))


def test_workload_names_and_reasons_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace):
    result, _ = measure.run(name, 7, 0.0, trace, TINY)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_layer_counts_repeat_exactly():
    first, _ = measure.run("born-csv", 3, 0.0, 1, TINY)
    second, _ = measure.run("born-csv", 3, 0.0, 1, TINY)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert [first["metrics"][c] for c in counts] == [second["metrics"][c] for c in counts]
    assert first["metrics"]["cli.read_trials_csv.rows"]["value"] == TINY.csv_trials


def test_flipped_outcome_in_emitted_csv_fails(monkeypatch, tmp_path):
    write = cli.write_trials_csv

    def write_then_flip(path, log, angles_deg):
        write(path, log, angles_deg)
        lines = Path(path).read_text().split("\n")
        label, d, g = lines[2].split(",")
        lines[2] = ",".join((label, "-1" if d == "+1" else "+1", g))
        Path(path).write_text("\n".join(lines))

    monkeypatch.setattr(cli, "write_trials_csv", write_then_flip)
    outcome = _one_iteration("born-csv", tmp_path)
    assert outcome["failed"] == outcome["attempted"] == 2
    assert any("differs" in p for p in outcome["problems"])


def test_lhv_counts_above_the_local_bound_fail(monkeypatch, tmp_path):
    def rigged(pair_index, d, g, n_pairs):
        n = len(pair_index) // 4
        return np.array([[n, 0, 0, 0], [n, 0, 0, 0], [n, 0, 0, 0], [0, n, 0, 0]])

    monkeypatch.setattr(_kernels, "count_outcomes", rigged)
    outcome = _one_iteration("lhv-explore", tmp_path)
    assert outcome["failed"] == outcome["attempted"] == 2
    assert any("above 2" in p for p in outcome["problems"])


def test_nonzero_exit_fails(monkeypatch, tmp_path):
    def refuse(path):
        raise cli.UsageError("line 3: outcome must be +1 or -1")

    monkeypatch.setattr(cli, "read_trials_csv", refuse)
    outcome = _one_iteration("born-csv", tmp_path)
    assert outcome["failed"] == outcome["attempted"] == 2
    assert any("analyze exited 2" in p for p in outcome["problems"])


@pytest.mark.parametrize(
    "n, index", [(1, 0), (5, 4), (9, 8), (10, 8), (11, 5), (30, 19), (100, 89), (1000, 899)]
)
def test_tail_index(n, index):
    assert measure.tail_index(n) == index


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "born-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
