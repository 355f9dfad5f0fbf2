"""Spans around the calls into gcgeig's modules, and the per-layer split.

The library is not edited.  :func:`instrument` replaces, for the duration of
a ``with`` block, the names the solver looks up in its own module (and the
``apply`` of the two problem operators) with wrappers that record one span
per call: ``[name, parent index, start, end, info]``.  A layer's self time
is its spans' durations minus the part their child spans cover, so the self
times of one solve add up to the solver span.

Flop and byte figures are computed from shapes and nnz, not measured.  The
byte model is the least traffic a call needs: a CSR product streams the
matrix once (8-byte values, 4-byte indices) and reads and writes each
vector column once.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
import json
import time

import numpy as np

import gcgeig.operators
import gcgeig.orth
import gcgeig.solver

NAME, PARENT, START, END, INFO = range(5)

# What a traced run prints, in this order.  io.* come from the set-ups,
# the rest from layer_metrics().
PER_LAYER = (
    ("operators.A.calls", "count"),
    ("operators.A.cols", "count"),
    ("operators.A.s", "s"),
    ("operators.B.calls", "count"),
    ("operators.B.cols", "count"),
    ("operators.B.s", "s"),
    ("operators.cols_per_call", "cols/call"),
    ("operators.flops", "flop"),
    ("operators.bytes", "B"),
    ("operators.A.cols.cg", "count"),
    ("operators.A.cols.solver", "count"),
    ("operators.B.cols.orth", "count"),
    ("operators.self_s", "s"),
    ("cg.calls", "count"),
    ("cg.sweeps", "count"),
    ("cg.s", "s"),
    ("cg.self_s", "s"),
    ("cg.converged_frac", "ratio"),
    ("cg.frozen_cols", "count"),
    ("dense.eig_calls", "count"),
    ("dense.eig_s", "s"),
    ("dense.gram_svd_calls", "count"),
    ("dense.gram_svd_s", "s"),
    ("orth.calls", "count"),
    ("orth.s", "s"),
    ("orth.self_s", "s"),
    ("orth.reductions", "count"),
    ("orth.kept_frac", "ratio"),
    ("orth.defl_cols", "count"),
    ("multivec.inner_calls", "count"),
    ("multivec.inner_s", "s"),
    ("multivec.inner_flops", "flop"),
    ("solver.iters", "count"),
    ("solver.max_proj_dim", "count"),
    ("solver.reductions", "count"),
    ("solver.self_s", "s"),
    ("io.read_s", "s"),
    ("io.read_bytes", "B"),
)


class Tracer:
    """Holds the spans of one solve in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def wrap(self, name, fn, info=None):
        """``fn`` with a span around every call; ``info(args, result)``
        fills the span's info slot (``result`` is None if ``fn`` raised)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if info is not None:
                    span[INFO] = info(args, result)

        return traced

    def dump(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s[NAME],
                    "parent": s[PARENT],
                    "start_s": s[START] - t0,
                    "end_s": s[END] - t0,
                    "info": s[INFO],
                }
                fh.write(json.dumps(rec) + "\n")


def _cols(args, result):
    return args[0].shape[1]


def _shifted_cols(args, result):
    return args[1].shape[1]          # args[0] is the ShiftedOperator


def _cg(args, result):
    cols = args[1].shape[1]
    if result is None:
        return (cols, 0, 0, 0)
    rep = result[1]
    return (cols, rep.iterations, int(rep.converged.sum()), int(rep.frozen.sum()))


def _orth_against(args, result):
    width = args[1].shape[1]
    if result is None:               # AllDependent: nothing kept
        return (args[0].shape[1], 0, 0, width)
    return (args[0].shape[1], result.num_kept, result.reduction_count, width)


def _orth_svd(args, result):
    offered = args[2] - args[1] + 1  # the solver passes columns s..e
    if result is None:
        return (offered, 0, 0, None)
    return (offered, result.num_kept, result.reduction_count, None)


def _inner(args, result):
    x, y = args[0], args[1]
    return 2 * x.shape[0] * x.shape[1] * y.shape[1]


# (owner, attribute, span name, info); the solver imported these names into
# its own module, so they are replaced there, and gram_svd in orth as well
_PATCHES = (
    (gcgeig.solver, "block_cg", "cg", _cg),
    (gcgeig.solver, "orth_against", "orth", _orth_against),
    (gcgeig.solver, "recursive_orth_svd", "orth", _orth_svd),
    (gcgeig.solver, "sym_eig_range", "dense.eig", None),
    (gcgeig.solver, "sym_eig_full", "dense.eig", None),
    (gcgeig.solver, "gram_svd", "dense.gram_svd", None),
    (gcgeig.orth, "gram_svd", "dense.gram_svd", None),
    (gcgeig.solver, "mv_inner_prod", "multivec.inner", _inner),
    (gcgeig.operators.ShiftedOperator, "apply", "operators.shifted", _shifted_cols),
)


@contextlib.contextmanager
def instrument(tracer, solve, a_op, b_op):
    """Yield ``solve`` wrapped in the root ``solver`` span, with every layer
    boundary traced; everything is put back on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _PATCHES]
    ops = [(a_op, "operators.A")] + ([] if b_op is None else [(b_op, "operators.B")])
    try:
        for (owner, attr, name, info), (_, _, orig) in zip(_PATCHES, saved):
            setattr(owner, attr, tracer.wrap(name, orig, info))
        for op, name in ops:
            op.apply = tracer.wrap(name, op.apply, _cols)
        yield tracer.wrap("solver", solve)
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)
        for op, _ in ops:
            op.__dict__.pop("apply", None)


def layer_metrics(spans, report, n, nnz_a, nnz_b):
    """Per-layer counts and times of one traced solve."""
    m = defaultdict(int)
    child = np.zeros(len(spans))
    caller = [""] * len(spans)       # nearest enclosing non-operators layer
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
            layer_p = spans[p][NAME].split(".")[0]
            caller[i] = caller[p] if layer_p == "operators" else layer_p

    for i, s in enumerate(spans):
        name, info = s[NAME], s[INFO]
        dur = s[END] - s[START]
        layer = name.split(".")[0]
        m[layer + ".self_s"] += dur - child[i]
        if name in ("operators.A", "operators.B"):
            op = name[-1]
            nnz = nnz_a if op == "A" else nnz_b
            m[f"operators.{op}.calls"] += 1
            m[f"operators.{op}.cols"] += info
            m[f"operators.{op}.s"] += dur
            m[f"operators.{op}.cols.{caller[i]}"] += info
            m["operators.flops"] += 2 * nnz * info
            m["operators.bytes"] += 12 * nnz + 4 * (n + 1) + 16 * n * info
        elif name == "operators.shifted":
            # the "- theta * B x" update; the A and B products are children
            m["operators.flops"] += 2 * n * info
            m["operators.bytes"] += 24 * n * info
        elif name == "cg":
            cols, sweeps, conv, frozen = info
            m["cg.calls"] += 1
            m["cg.s"] += dur
            m["cg.cols_in"] += cols
            m["cg.sweeps"] += sweeps
            m["cg.converged"] += conv
            m["cg.frozen_cols"] += frozen
        elif name == "dense.eig":
            m["dense.eig_calls"] += 1
            m["dense.eig_s"] += dur
        elif name == "dense.gram_svd":
            m["dense.gram_svd_calls"] += 1
            m["dense.gram_svd_s"] += dur
        elif name == "orth":
            offered, kept, reductions, width = info
            m["orth.calls"] += 1
            m["orth.s"] += dur
            m["orth.offered"] += offered
            m["orth.kept"] += kept
            m["orth.reductions"] += reductions
            if width is not None:
                m["orth.defl_calls"] += 1
                m["orth.defl_sum"] += width
        elif name == "multivec.inner":
            m["multivec.inner_calls"] += 1
            m["multivec.inner_s"] += dur
            m["multivec.inner_flops"] += info

    op_calls = m["operators.A.calls"] + m["operators.B.calls"]
    m["operators.cols_per_call"] = (
        (m["operators.A.cols"] + m["operators.B.cols"]) / op_calls if op_calls else 0.0
    )
    m["cg.converged_frac"] = m.pop("cg.converged") / max(m.pop("cg.cols_in"), 1)
    m["orth.kept_frac"] = m.pop("orth.kept") / max(m.pop("orth.offered"), 1)
    defl_calls = m.pop("orth.defl_calls")
    m["orth.defl_cols"] = m.pop("orth.defl_sum") / defl_calls if defl_calls else 0.0
    m["solver.iters"] = report.iterations
    m["solver.max_proj_dim"] = report.max_projection_dim
    m["solver.reductions"] = report.total_reductions
    m["solver.span_s"] = spans[0][END] - spans[0][START]
    return m
