"""bellsim benchmark: real CLI command sequences, timed end to end and by layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

All load comes from this one process: each command goes through
``bellsim.cli.main(argv)`` with ``src/`` on the path, and the numpy/BLAS
thread pools are capped at the number of usable cores.  Iterations run
in a closed loop, one after another, until the next one would end past
``--seconds``.  Every iteration's outputs are checked and digested; see
``workloads.py`` for the workloads and why each exists.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced iterations (``tracing.py``)
and reports the per-layer metrics plus ``trace.overhead_s``, the traced
minus the untraced median iteration time.  The run manifest, the
metrics and the output digests go to stdout; the last line is the result
JSON.  The same record, and the spans of a traced run, are written under
``.bench_out/``.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("born-csv", "lhv-explore")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bellsim" / "__init__.py").is_file():
        print(f"error: no bellsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the caps must be set before numpy is first imported
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    os.chdir(ROOT)
    import measure

    return measure.main(args)


if __name__ == "__main__":
    sys.exit(main())
