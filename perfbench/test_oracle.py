"""Self-test of the benchmark's oracle, tracer and metric list.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import gcgeig.solver  # noqa: E402
from gcgeig import gcg_solve, read_matrix_market  # noqa: E402

import bench  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload, write_problem  # noqa: E402

TINY = {
    "fem": Workload("tiny-fem", "fem1d-p1", 80, 4, moving=False),
    "moving": Workload("tiny-moving", "clustered-random", 120, 12, moving=True),
}


@pytest.fixture(params=sorted(TINY))
def case(request, tmp_path):
    workload = TINY[request.param]
    problem = write_problem(workload, 3, tmp_path)
    ops = [read_matrix_market(p) for p in problem.paths]
    a_op, b_op = ops[0], (ops[1] if len(ops) > 1 else None)
    report = gcg_solve(a_op, b_op, workload.config(3))
    return workload, problem, a_op, b_op, report


def test_correct_report_passes(case):
    workload, problem, _, _, report = case
    tally = bench.Tally(workload, problem)
    assert tally.check(report), tally.reasons
    assert (tally.attempted, tally.failed) == (1, 0)


def test_perturbed_eigenvalue_counts_as_failure(case):
    workload, problem, _, _, report = case
    vals = report.eigenvalues.copy()
    vals[-1] *= 1.0 + 1e-6
    tally = bench.Tally(workload, problem)
    assert not tally.check(dataclasses.replace(report, eigenvalues=vals))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert any("eigenvalue rel. error" in r for r in tally.reasons)


def test_unconverged_report_counts_as_failure(case):
    workload, problem, a_op, b_op, _ = case
    cfg = dataclasses.replace(workload.config(3), max_gcg_iters=2)
    report = gcg_solve(a_op, b_op, cfg)
    assert report.status == "max_iterations"
    tally = bench.Tally(workload, problem)
    assert not tally.check(report)
    assert tally.failed == 1
    assert any("max_iterations" in r for r in tally.reasons)


def test_swapped_order_counts_as_failure(case):
    workload, problem, _, _, report = case
    order = np.arange(workload.num_eigen)[::-1]
    swapped = dataclasses.replace(
        report,
        eigenvalues=report.eigenvalues[order],
        eigenvectors=report.eigenvectors[:, order],
    )
    tally = bench.Tally(workload, problem)
    assert not tally.check(swapped)
    assert any("ascending" in r for r in tally.reasons)


def test_traced_solve_matches_untraced_and_restores(case):
    workload, _, a_op, b_op, report = case
    before = gcgeig.solver.block_cg
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, gcg_solve, a_op, b_op) as solve:
        traced = solve(a_op, b_op, workload.config(3))
    assert gcgeig.solver.block_cg is before
    assert "apply" not in vars(a_op)
    assert traced.iterations == report.iterations
    assert np.array_equal(traced.eigenvalues, report.eigenvalues)

    nnz_b = 0 if b_op is None else b_op.nnz
    m = tracing.layer_metrics(tracer.spans, traced, a_op.dim, a_op.nnz, nnz_b)
    self_sum = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(m["solver.span_s"], rel=1e-9)
    assert m["cg.calls"] > 0 and m["orth.calls"] > 0 and m["dense.eig_calls"] > 0
    assert m["operators.A.cols.cg"] + m["operators.A.cols.solver"] == m["operators.A.cols"]
    if b_op is not None:
        assert m["operators.B.cols.orth"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
