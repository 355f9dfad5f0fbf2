"""Solve benchmark for gcgeig: time to a checked 1e-8 solution.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload fem-cg --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--trace 0`` prints the end-to-end metrics (solve_s, setup_s,
peak_alloc_mb, ok_frac); ``--trace 1`` prints the per-layer split from a
traced run.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# BLAS reads its thread count when it loads, so pin it before numpy: one
# thread (README.md, "BLAS threads", says why).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

if not (SRC / "gcgeig" / "__init__.py").is_file():
    sys.exit(f"error: gcgeig sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import bench  # noqa: E402
from facts import run_facts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the measured window of one workload run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _print_workload(name, metrics, tally, detail, facts):
    print(f"== {name} (seed {facts['seed']}): {tally.attempted} solves checked, "
          f"{tally.failed} failed")
    for key, m in metrics.items():
        print(f"  {key:<26} {m['value']:>16.6g} {m['unit']}")
    for reason in detail["oracle"]["reasons"]:
        print(f"  FAIL: {reason}")
    print(json.dumps({"workload": name, "facts": facts, "detail": detail}))


def main(argv=None):
    args = parse_args(argv)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    facts = run_facts(args.seed, BLAS_THREADS)
    workdir = WORK / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            metrics, tally, detail = bench.run(
                WORKLOADS[name], args.seed, args.seconds, args.trace, workdir,
                WORK / f"spans-{name}-{args.seed}.jsonl",
            )
            _print_workload(name, metrics, tally, detail, facts)
            results[name] = (metrics, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {f"{n}.{k}": m for n, (ms, _) in results.items() for k, m in ms.items()}
    attempted = sum(t.attempted for _, t in results.values())
    failed = sum(t.failed for _, t in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
