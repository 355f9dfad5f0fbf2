"""Command-line front end for the block eigensolver.

Exit codes: 0 converged, 2 stopped at the iteration cap, 1 runtime or
input error, 64 when the problem source flags conflict (argparse keeps
its own exit 2 for malformed flag syntax).
"""

from __future__ import annotations

import argparse
import sys
import time

from .errors import GcgError
from .io import GENERATOR_NAMES, RunRecord, generate_builtin, read_matrix_market, write_history
from .solver import SolverConfig, gcg_solve, resolve_block_sizes

EXIT_CONVERGED = 0
EXIT_ERROR = 1
EXIT_MAX_ITERATIONS = 2
EXIT_USAGE = 64


def build_parser():
    p = argparse.ArgumentParser(
        prog="gcgeig",
        description="Block eigensolver for symmetric (generalized) problems: "
        "smallest num-eigen eigenpairs of A x = lambda B x.",
    )
    src = p.add_argument_group("problem source (exactly one)")
    src.add_argument("--matrix-a", metavar="PATH", help="MatrixMarket file for A")
    src.add_argument(
        "--matrix-b", metavar="PATH", help="MatrixMarket file for B (optional)"
    )
    src.add_argument(
        "--builtin",
        metavar="NAME",
        help=f"builtin generator: {', '.join(GENERATOR_NAMES)}",
    )
    src.add_argument("--n", type=int, default=100, help="generator size (default 100)")
    src.add_argument(
        "--density",
        type=float,
        default=0.005,
        help="off-diagonal density for clustered-random (default 0.005)",
    )
    src.add_argument(
        "--gen-seed", type=int, default=0, help="generator seed (default 0)"
    )

    run = p.add_argument_group("solver")
    run.add_argument("--num-eigen", type=int, default=1, metavar="K")
    run.add_argument("--tol", type=float, default=1e-8, metavar="T")
    run.add_argument("--block-size", type=int, default=None, metavar="BS")
    run.add_argument(
        "--shift",
        choices=("dynamic", "none"),
        default="dynamic",
        help="inner-solve shift theta: dynamic (default) starts at a floor under "
        "the spectrum, from the Gershgorin bounds of CSR input and else 0, and "
        "follows the largest locked eigenvalue; none keeps theta = 0",
    )
    run.add_argument("--cg-max-iters", type=int, default=30, metavar="M")
    run.add_argument("--cg-rel-tol", type=float, default=0.01, metavar="R")
    run.add_argument("--moving", choices=("on", "off"), default="off")
    run.add_argument("--max-iters", type=int, default=1000)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--deterministic",
        action="store_true",
        help="run record repeatable at a fixed BLAS thread count: "
        "zeroed timings",
    )

    out = p.add_argument_group("output")
    out.add_argument(
        "--out", metavar="PATH", help="run record JSON (default: stdout)"
    )
    out.add_argument(
        "--history", metavar="PATH", help="per-iteration history file"
    )
    out.add_argument(
        "--format",
        choices=("json", "csv"),
        default="csv",
        help="history file format (default csv)",
    )
    return p


def run_cli(argv=None):
    args = build_parser().parse_args(argv)

    if (args.matrix_a is None) == (args.builtin is None):
        print(
            "error: exactly one of --matrix-a or --builtin must be given",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.matrix_b is not None and args.matrix_a is None:
        print("error: --matrix-b requires --matrix-a", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.builtin is not None:
            a, b = generate_builtin(
                args.builtin, args.n, density=args.density, seed=args.gen_seed
            )
        else:
            a = read_matrix_market(args.matrix_a)
            b = read_matrix_market(args.matrix_b) if args.matrix_b else None

        solver_cfg = SolverConfig(
            num_eigen=args.num_eigen,
            tol=args.tol,
            block_size=args.block_size,
            max_gcg_iters=args.max_iters,
            cg_max_iters=args.cg_max_iters,
            cg_rel_tol=args.cg_rel_tol,
            shift_mode=args.shift,
            moving=args.moving == "on",
            seed=args.seed,
        )
        block_size, size_x = resolve_block_sizes(solver_cfg, a.dim)
        # the exact parameter values the solver uses, for the run record
        config = {
            "n": a.dim,
            "num_eigen": args.num_eigen,
            "tol": args.tol,
            "block_size": block_size,
            "size_x": size_x,
            "shift": args.shift,
            "cg_max_iters": args.cg_max_iters,
            "cg_rel_tol": args.cg_rel_tol,
            "moving": solver_cfg.moving,
            "max_iters": args.max_iters,
            "seed": args.seed,
            "deterministic": args.deterministic,
        }

        start = time.perf_counter()
        report = gcg_solve(a, b, config=solver_cfg)
        wall = time.perf_counter() - start
        if args.deterministic:
            # at a fixed BLAS thread count the clocks are all that differ
            # between repeated runs
            wall = 0.0
            for rec in report.history:
                rec.timings = dict.fromkeys(rec.timings, 0.0)

        record = RunRecord.from_run(
            report,
            config,
            wall_time=wall,
            nnz_a=getattr(a, "nnz", None),
            nnz_b=None if b is None else getattr(b, "nnz", None),
        )
        if args.out:
            record.write(args.out)
        else:
            sys.stdout.write(record.to_json())
        if args.history:
            write_history(report, args.history, format=args.format)
    except GcgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    return EXIT_CONVERGED if report.status == "converged" else EXIT_MAX_ITERATIONS


def main():
    return run_cli()


if __name__ == "__main__":
    sys.exit(main())
