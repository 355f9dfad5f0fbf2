"""The measurement protocol of one workload run.

One process, one caller, a closed loop: each ``gcg_solve`` starts when the
previous one has returned and been checked.  Files are written and the
oracle reference is computed before anything is timed; every solve's result
is checked after its timer stops.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

import numpy as np

from gcgeig import gcg_solve, read_matrix_market

import oracle
import tracing
from workloads import TOL, reference_eigenvalues, write_problem

# A set-up sample is the fastest of a burst of back-to-back set-ups, so a
# one-off stall of the host does not count.  Bursts are taken before the
# first solve and after each solve, so they are spread over the measured
# window like the solves are; setup_s is the median of the samples.
SETUP_BURST = 3
BURSTS_FIRST = 3
# The median summed self time of the traced solves must lie within this share
# of the median untraced solve time.  The sum is the traced solve's root span,
# so the check bounds what tracing adds or loses.  Tracing costs a few per
# cent; consecutive solves on a 2-vCPU guest differ by up to about 10%.
SELF_TIME_SLACK = 0.25
# Failure reasons kept for the run record.
MAX_REASONS = 5

END_TO_END = (
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_alloc_mb", "MB"),
    ("ok_frac", "ratio"),
)


class Tally:
    """Solves attempted and failed, with the worst oracle figures seen."""

    def __init__(self, workload, problem):
        self.problem = problem
        self.reference = reference_eigenvalues(workload, problem)
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.worst = {"residual": 0.0, "eig_rel_err": 0.0, "orth_defect": 0.0}

    def check(self, report, extra_reasons=()):
        v = oracle.check(report, self.reference, self.problem.a, self.problem.b, TOL)
        reasons = v.reasons + list(extra_reasons)
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.reasons.extend(reasons[: MAX_REASONS - len(self.reasons)])
        for key, value in (
            ("residual", v.max_residual),
            ("eig_rel_err", v.max_eig_rel_err),
            ("orth_defect", v.orth_defect),
        ):
            if not value <= self.worst[key]:  # NaN (unchecked) wins too
                self.worst[key] = value
        return not reasons

    def fail(self, reason):
        """Count a failed check that is not about one solve."""
        self.failed += 1
        self.reasons.append(reason)

    def record(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": self.reasons,
            "worst": self.worst,
        }


def _setup(problem, bursts):
    """Read the workload's files into operators in ``bursts`` bursts of
    SETUP_BURST set-ups; returns the fastest set-up of each burst, in
    seconds, and the operators of the last set-up."""
    samples = []
    for _ in range(bursts):
        times = []
        for _ in range(SETUP_BURST):
            t0 = time.perf_counter()
            ops = [read_matrix_market(p) for p in problem.paths]
            times.append(time.perf_counter() - t0)
        samples.append(min(times))
    return samples, ops[0], (ops[1] if len(ops) > 1 else None)


def _summary(times):
    return {
        "n": len(times),
        "median": statistics.median(times),
        "min": min(times),
        "max": max(times),
        "all": times,
    }


def _timed(solve, *args):
    t0 = time.perf_counter()
    rep = solve(*args)
    return rep, time.perf_counter() - t0


def timed_run(workload, seed, seconds, problem):
    """End-to-end metrics, tracing off."""
    tally = Tally(workload, problem)
    setup_times, a_op, b_op = _setup(problem, BURSTS_FIRST)
    cfg = workload.config(seed)

    # Peak allocation comes from one solve of its own: tracemalloc slows a
    # solve three- to fourfold.  That solve also warms every code path up.
    tracemalloc.start()
    try:
        rep = gcg_solve(a_op, b_op, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tally.check(rep)

    times = []
    start = time.perf_counter()
    while True:
        rep, dt = _timed(gcg_solve, a_op, b_op, cfg)
        times.append(dt)
        tally.check(rep)
        setup_times += _setup(problem, 1)[0]
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break

    values = {
        "solve_s": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_alloc_mb": peak / 1e6,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    detail = {
        "solve_s": _summary(times),
        "setup_s": _summary(setup_times),
        "iterations": rep.iterations,
        "oracle": tally.record(),
    }
    return values, tally, detail


def traced_run(workload, seed, seconds, problem, spans_path):
    """Per-layer metrics: traced solves alternate with untraced ones, and
    each traced solve is held to the untraced result at the same seed."""
    tally = Tally(workload, problem)
    setup_times, a_op, b_op = _setup(problem, BURSTS_FIRST)
    cfg = workload.config(seed)
    n = a_op.dim
    nnz_b = 0 if b_op is None else b_op.nnz

    ref, warm = _timed(gcg_solve, a_op, b_op, cfg)
    tally.check(ref)

    tracer = tracing.Tracer()
    per_solve, self_sums, traced_times, untraced_times = [], [], [], []
    start = time.perf_counter()
    traced_turn = True
    while True:
        if traced_turn:
            tracer.reset()
            with tracing.instrument(tracer, gcg_solve, a_op, b_op) as solve:
                rep, wall = _timed(solve, a_op, b_op, cfg)
            lm = tracing.layer_metrics(tracer.spans, rep, n, a_op.nnz, nnz_b)
            broken = []
            if rep.iterations != ref.iterations:
                broken.append(f"traced iters {rep.iterations} != {ref.iterations}")
            if not np.array_equal(rep.eigenvalues, ref.eigenvalues):
                broken.append("traced eigenvalues differ from the untraced run")
            if per_solve:
                moved = [k for k, u in tracing.PER_LAYER if u != "s" and lm[k] != per_solve[0][k]]
                if moved:
                    broken.append(f"counts differ between traced solves: {moved}")
            tally.check(rep, broken)
            per_solve.append(lm)
            self_sums.append(sum(v for k, v in lm.items() if k.endswith(".self_s")))
            traced_times.append(wall)
        else:
            rep, dt = _timed(gcg_solve, a_op, b_op, cfg)
            tally.check(rep)
            untraced_times.append(dt)
        setup_times += _setup(problem, 1)[0]
        traced_turn = not traced_turn
        upcoming = traced_times if traced_turn else (untraced_times or [warm])
        if time.perf_counter() - start + statistics.median(upcoming) > seconds:
            break
    tracer.dump(spans_path)

    values = {}
    for key, unit in tracing.PER_LAYER:
        if key == "io.read_s":
            values[key] = statistics.median(setup_times)
        elif key == "io.read_bytes":
            values[key] = problem.file_bytes
        elif unit == "s":
            values[key] = statistics.median(lm[key] for lm in per_solve)
        else:
            values[key] = per_solve[0][key]
    untraced = statistics.median(untraced_times or [warm])
    traced = statistics.median(traced_times)
    self_sum = statistics.median(self_sums)
    if abs(self_sum - untraced) > SELF_TIME_SLACK * untraced:
        tally.fail(f"self times sum to {self_sum:.4f} s against an untraced "
                   f"solve_s of {untraced:.4f} s")
    detail = {
        "traced_solve_s": _summary(traced_times),
        "untraced_solve_s": _summary(untraced_times or [warm]),
        "trace_overhead_s": traced - untraced,
        "trace_overhead_frac": (traced - untraced) / untraced,
        "self_time_sum_s": self_sum,
        "self_time_frac": (self_sum - untraced) / untraced,
        "self_time_slack": SELF_TIME_SLACK,
        "spans_per_solve": len(tracer.spans),
        "spans_file": str(spans_path),
        "oracle": tally.record(),
    }
    return values, tally, detail


def run(workload, seed, seconds, trace, workdir, spans_path):
    """Run one workload; returns (metrics, tally, detail).  The input files
    go to ``workdir`` and are deleted again; a traced run leaves the spans
    of its last traced solve in ``spans_path``."""
    problem = write_problem(workload, seed, workdir)
    try:
        if trace:
            values, tally, detail = traced_run(workload, seed, seconds, problem, spans_path)
            units = dict(tracing.PER_LAYER)
        else:
            values, tally, detail = timed_run(workload, seed, seconds, problem)
            units = dict(END_TO_END)
    finally:
        for path in problem.paths:
            path.unlink(missing_ok=True)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return metrics, tally, detail
