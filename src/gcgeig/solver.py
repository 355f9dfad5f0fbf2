"""Block damping inverse power iteration for symmetric eigenproblems.

Finds the ``num_eigen`` smallest eigenpairs of ``A x = lambda x`` or
``A x = lambda B x`` (A symmetric, B symmetric positive definite) without
factorizing anything.  Each iteration works in the subspace spanned by
``[X, P, W]``:

* X holds the current Ritz vectors; converged leading columns are locked
  and leave the projected problem.
* P carries the momentum directions: the part of the previous step kept
  out of span(X), built purely in coefficient space.
* W is a damped inverse power update: a few CG sweeps on
  ``(A - theta*B) W = B X (Lambda - theta)`` started from X, where theta
  is the largest converged eigenvalue so far ("dynamic" shift) or 0.

The projected matrix is assembled structurally - the X block is the
diagonal of Ritz values, the X-P block vanishes by construction, the P
block is carried forward in coefficient space - so A is applied only to W
once per iteration plus a chunk of the convergence check.

With ``moving=True`` the solver hunts many eigenpairs with a sliding
window of width 3*block_size: whenever 2*block_size columns of the window
have converged they are emitted to an external store (which keeps
deflating W) and the window slides up the spectrum, so the projected
problem does not grow past 5*block_size columns until the store, X and P
span the whole space; then the store is folded back into X and all ``n``
columns are projected afresh.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cg import block_cg
from .dense import SpectralDecomposition, gram_svd, sym_eig_full
# unused here, but perfbench/tracing.py patches this name in this module
from .dense import sym_eig_range  # noqa: F401
from .errors import AllDependent, InvalidMatrix, InvalidShape
from .multivec import mv_inner_prod, mv_new, mv_set_random
from .operators import ShiftedOperator, as_operator
from .orth import OrthConfig, orth_against, recursive_orth_svd

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "SolverReport",
    "gcg_solve",
    "resolve_block_sizes",
    "select_shift",
    "moving_memory_budget",
]

_TIMING_KEYS = ("t_step2", "t_step3", "t_step4", "t_step5", "t_step6")


@dataclass
class SolverConfig:
    num_eigen: int = 1
    tol: float = 1e-8
    block_size: int | None = None      # default ceil(num_eigen / 5)
    size_x: int | None = None          # default min(num_eigen + 3*block_size, n)
    max_gcg_iters: int = 1000
    cg_max_iters: int = 30
    cg_rel_tol: float = 0.01
    shift_mode: str = "dynamic"        # "dynamic" | "none"
    moving: bool = False
    seed: int = 0
    orth: OrthConfig = field(default_factory=OrthConfig)
    stall_window: int = 50
    # test / diagnostics plumbing
    instrument_orth: bool = False      # measure max|V'BV - I| every iteration
    cross_check_abar: bool = False     # rebuild the projected matrix naively


@dataclass
class IterationRecord:
    iteration: int
    num_converged: int
    first_unconverged_residual: float
    theta: float
    cg_iterations: int
    basis_size: int
    orth_reductions: int
    timings: dict = field(default_factory=dict)
    basis_defect: float | None = None
    abar_defect: float | None = None
    cg_converged: int = 0              # inner CG columns that met rel_tol
    cg_frozen: int = 0                 # inner CG columns stopped on nonpositive curvature


@dataclass
class SolverReport:
    status: str                        # "converged" | "max_iterations"
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    num_converged: int
    iterations: int
    residuals: np.ndarray
    history: list
    stagnated: bool
    max_projection_dim: int
    total_reductions: int


def moving_memory_budget(size_x, block_size):
    """Worst-case double-precision slots of bookkeeping the moving window
    keeps per process, beyond the n-by-column vector blocks themselves."""
    mpd = size_x + 2 * block_size
    return (size_x + 2 * block_size) + 2 * mpd * mpd + 10 * mpd + size_x * block_size


def resolve_block_sizes(config, n):
    """The ``(block_size, size_x)`` a solve of dimension ``n`` works with,
    defaults filled in; the moving window ignores ``size_x``."""
    ne = int(config.num_eigen)
    if not (1 <= ne <= n):
        raise InvalidShape(f"num_eigen must be in 1..{n}, got {ne}")
    bs = config.block_size if config.block_size is not None else max(1, math.ceil(ne / 5))
    if bs < 1:
        raise InvalidShape(f"block_size must be at least 1, got {bs}")
    bs = min(bs, n)
    if config.moving:
        return bs, min(3 * bs, n)
    sx = config.size_x if config.size_x is not None else min(ne + 3 * bs, n)
    return bs, min(max(sx, ne), n)


def select_shift(mode, lam, num_locked, store_vals=()):
    """Damping shift: the largest eigenvalue locked so far, else 0."""
    if mode not in ("dynamic", "none"):
        raise InvalidShape(f"unknown shift mode {mode!r}")
    if mode == "none":
        return 0.0
    best = None
    if num_locked > 0:
        best = float(lam[num_locked - 1])
    for vals in store_vals:
        if len(vals):
            top = float(vals[-1])
            best = top if best is None or top > best else best
    return 0.0 if best is None else best


def _rel_residual(ax_j, x_j, bx_j, lam_j, generalized):
    if generalized:
        r = ax_j - lam_j * bx_j
        xbx = float(x_j @ bx_j)
        denom = math.sqrt(max(xbx, 0.0))
        if lam_j > 0.0:
            denom *= lam_j
    else:
        r = ax_j - lam_j * x_j
        denom = math.sqrt(float(x_j @ x_j))
    if denom == 0.0:
        denom = 1.0
    return math.sqrt(float(r @ r)) / denom


def _residuals(a, b_op, x, lam, chunk):
    """Relative residual of each column of ``x``, in order.  A and B are
    applied to ``chunk`` columns at a time, so a caller that stops early
    stops the operator applications too, and no temporary is wider than
    ``chunk`` columns."""
    for start in range(0, x.shape[1], chunk):
        stop = min(start + chunk, x.shape[1])
        xc = np.asfortranarray(x[:, start:stop])
        axc = a.apply(xc)
        bxc = b_op.apply(xc) if b_op is not None else xc
        for j in range(stop - start):
            yield _rel_residual(
                axc[:, j], xc[:, j], bxc[:, j], float(lam[start + j]), b_op is not None
            )


def _count_converged(a, b_op, x_new, lam_new, limit, chunk, tol):
    """Length of the converged prefix of the freshly computed Ritz block,
    and the residual of the first column that failed (0.0 if none did)."""
    count = 0
    for rel in _residuals(a, b_op, x_new[:, :limit], lam_new, chunk):
        if not rel < tol:
            return count, rel
        count += 1
    return count, 0.0


def _build_p(coeffs, num_x_rows, group_start, group_width, dep_tol):
    """Momentum coefficients: the active group of the new Ritz coefficients
    with the X rows zeroed, deflated against all of them, orthonormalized.
    Returns None when nothing independent is left (always at the first
    iteration, where the coefficient matrix is square and orthogonal)."""
    m = coeffs.shape[0]
    if group_width <= 0 or m <= num_x_rows:
        return None
    pt = coeffs[:, group_start : group_start + group_width].copy()
    pt[:num_x_rows, :] = 0.0
    for _ in range(2):
        pt -= coeffs @ (coeffs.T @ pt)
    g = pt.T @ pt
    dec = gram_svd((g + g.T) / 2.0)
    floor = dep_tol * max(float(dec.values.max(initial=0.0)), 0.0)
    bad = int(np.searchsorted(dec.values, floor, side="right"))
    if bad >= group_width:
        return None
    q = pt @ (dec.vectors[:, bad:] / np.sqrt(dec.values[bad:]))
    # Columns kept just above the dependence floor get rescaled by huge
    # factors, which amplifies rounding residue from the deflation into
    # O(dep_tol**-0.5)-level cross terms and norm errors.  One more
    # deflate+normalize pass at unit scale pins the group at rounding level;
    # the coarse floor here drops columns that were mostly residue (a genuine
    # new direction re-enters this Gram with eigenvalue close to 1).
    q -= coeffs @ (coeffs.T @ q)
    g = q.T @ q
    dec = gram_svd((g + g.T) / 2.0)
    floor = 1e-4 * max(float(dec.values.max(initial=0.0)), 0.0)
    bad = int(np.searchsorted(dec.values, floor, side="right"))
    if bad >= q.shape[1]:
        return None
    return q @ (dec.vectors[:, bad:] / np.sqrt(dec.values[bad:]))


def _starting_block(v, sx, b_op, ocfg, seed):
    """B-orthonormalize a random block into v[:, :sx], retrying the dropped
    columns once; returns the reductions spent."""
    mv_set_random(v[:, :sx], seed)
    out = recursive_orth_svd(v, 1, sx, b=b_op, cfg=ocfg)
    reductions = out.reduction_count
    if out.num_kept < sx:
        mv_set_random(v[:, out.num_kept : sx], seed + 9973)
        out = recursive_orth_svd(v, 1, sx, b=b_op, cfg=ocfg)
        reductions += out.reduction_count
        if out.num_kept < sx:
            raise AllDependent("could not build a full-rank starting block")
    return reductions


def _check_b_definite(b_op, sx, seed, dep_tol):
    """Raise InvalidMatrix when the B-Gram of the random starting block has
    an eigenvalue below -dep_tol times its largest magnitude."""
    x = mv_set_random(mv_new(b_op.dim, sx), seed)
    g = x.T @ b_op.apply(x)
    vals = np.linalg.eigvalsh((g + g.T) / 2.0)
    scale = float(np.abs(vals).max(initial=0.0))
    if vals[0] < -dep_tol * scale:
        raise InvalidMatrix(
            f"B is not positive definite: the Gram of the starting block has "
            f"eigenvalue {vals[0]:.3g} (largest magnitude {scale:.3g})"
        )


def _stagnation_flag(history, window):
    if window <= 0 or len(history) < window:
        return False
    tail = history[-window:]
    if tail[-1].num_converged != tail[0].num_converged:
        return False
    r0 = tail[0].first_unconverged_residual
    r1 = tail[-1].first_unconverged_residual
    return not (r1 < 0.9 * r0)


class _Timer:
    def __init__(self):
        self.marks = {k: 0.0 for k in _TIMING_KEYS}
        self._last = time.perf_counter()

    def lap(self, key):
        now = time.perf_counter()
        self.marks[key] += now - self._last
        self._last = now


@dataclass
class _Window:
    """The live state of one solve: ``v`` holds the blocks ``[X | P | W]``
    of widths ``sx``, ``np_``, ``nw``; ``lam`` the Ritz values of X, whose
    first ``locked`` columns have converged; the store the emitted pairs."""

    v: np.ndarray
    lam: np.ndarray
    sx: int
    locked: int = 0
    np_: int = 0
    nw: int = 0
    ritz: bool = False                  # X holds Ritz vectors: project structurally
    p_coupling: np.ndarray | None = None    # phat' Abar phat, the next P block
    store_x: list = field(default_factory=list)
    store_vals: list = field(default_factory=list)
    shift_op: object = None             # inner-solve operator, rebuilt per theta
    shift_theta: float | None = None

    @property
    def stored(self):
        return sum(len(vals) for vals in self.store_vals)

    def deflation(self):
        """What W is kept B-orthogonal to: the store, X and P."""
        span = self.v[:, : self.sx + self.np_]
        if not self.store_x:
            return span
        return np.asfortranarray(np.hstack(self.store_x + [span]))

    def fold(self, room):
        """Make the store, X and P the new X, unlocked, in an array with
        ``room`` spare columns, so the next pass projects them afresh."""
        span = self.deflation()
        k = span.shape[1]
        self.v = mv_new(span.shape[0], k + room)
        self.v[:, :k] = span
        self.lam = np.zeros(k + room)
        self.sx, self.locked, self.np_, self.nw = k, 0, 0, 0
        self.ritz = False
        self.store_x, self.store_vals = [], []

    def lock(self, x_new, lam_new, c):
        """Write the new Ritz block over the active X; lock X's first ``c``."""
        self.v[:, self.locked : self.sx] = x_new
        self.lam[self.locked : self.sx] = lam_new
        self.locked = c


def _project(win, a, basis):
    """The projected matrix ``basis' A basis``.  Once X holds Ritz vectors
    its block is diag(lam), the X-P block vanishes and the P block is the
    carried coupling, so A is applied to W only."""
    if not win.ritz:
        abar = mv_inner_prod(basis, a.apply(basis))
    else:
        d, np_, m = win.sx - win.locked, win.np_, basis.shape[1]
        abar = np.zeros((m, m), order="F")
        abar[:d, :d] = np.diag(win.lam[win.locked : win.sx])
        if np_:
            abar[d : d + np_, d : d + np_] = win.p_coupling
        if win.nw:
            cross = mv_inner_prod(basis, a.apply(basis[:, d + np_ :]))
            abar[:, d + np_ :] = cross
            abar[d + np_ :, :] = cross.T
    return (abar + abar.T) / 2.0


def _slide(win, full, basis, newly, bs, n, b_op, ocfg, seed):
    """Moving window: emit every verified pair to the store and keep the
    rest of the projected spectrum ``full`` as the new, narrower window.  A
    window left narrower than ``bs`` is topped up with random directions,
    and X then no longer holds Ritz vectors.  Returns the reductions spent."""
    x_all = np.matmul(basis, full.vectors, out=mv_new(n, full.vectors.shape[1]))
    # emitted pairs = columns locked in earlier passes plus the prefix
    # verified just now; the projected basis only spans the unlocked part,
    # so those two groups live in different arrays
    lo = win.locked
    win.store_x.append(np.asfortranarray(np.hstack([win.v[:, :lo], x_all[:, :newly]])))
    win.store_vals.append(np.concatenate([win.lam[:lo], full.values[:newly]]))
    win.sx = x_all.shape[1] - newly
    win.v[:, : win.sx] = x_all[:, newly:]
    win.lam[: win.sx] = full.values[newly:]
    win.locked = win.np_ = win.nw = 0
    if win.sx >= bs:
        return 0
    # narrow late windows can be exhausted before the wanted count is
    # reached: refill and let the next pass project from scratch
    win.ritz = False
    add = min(3 * bs, n - win.stored) - win.sx
    red = 0
    if add > 0:
        fresh = win.v[:, win.sx : win.sx + add]
        mv_set_random(fresh, seed)
        out = orth_against(fresh, win.deflation(), b=b_op, cfg=ocfg)
        red = out.reduction_count
        win.sx += out.num_kept
    if win.sx <= 0:
        raise AllDependent("moving window could not be refilled")
    return red


def _lock_and_momentum(win, basis, abar, x_new, dec, c, group, dep_tol):
    """Lock the converged prefix of the new Ritz block and build the
    momentum block P from the coefficients of the next ``group`` columns."""
    phat = _build_p(dec.vectors, win.sx - win.locked, c - win.locked, group, dep_tol)
    win.np_ = 0 if phat is None else phat.shape[1]
    if win.np_:
        win.p_coupling = phat.T @ (abar @ phat)
        win.v[:, win.sx : win.sx + win.np_] = basis @ phat   # before lock() overwrites X
    win.lock(x_new, dec.values, c)


def _damp(win, a, b_op, width, theta, cfg):
    """The damped inverse power block: a few CG sweeps on
    ``(A - theta*B) W = B X (Lambda - theta)`` started from the active X,
    written into the W slot.  Returns the CG report."""
    lo = win.locked
    x_act = np.asfortranarray(win.v[:, lo : lo + width])
    bx_act = b_op.apply(x_act) if b_op is not None else x_act
    rhs = np.asfortranarray(bx_act * (win.lam[lo : lo + width] - theta))
    if theta != win.shift_theta:
        win.shift_op = None   # free the old assembled matrix first
        win.shift_op = a if theta == 0.0 else ShiftedOperator(a, b_op, theta)
        win.shift_theta = theta
    w, rep = block_cg(
        win.shift_op, rhs, x0=x_act, max_iters=cfg.cg_max_iters, rel_tol=cfg.cg_rel_tol
    )
    start = win.sx + win.np_
    win.v[:, start : start + width] = w
    return rep


def _orth_w(win, b_op, ocfg, width, seed):
    """Deflate W against the store, X and P and B-orthonormalize it.  A
    block that collapses into that span is replaced once by random
    directions so the search still widens.  Returns the reductions spent."""
    start = win.sx + win.np_
    w = win.v[:, start : start + width]
    defl = win.deflation()
    red = win.nw = 0
    for attempt in range(2):
        if attempt:
            mv_set_random(w, seed)
        try:
            out = orth_against(w, defl, b=b_op, cfg=ocfg)
        except AllDependent:
            continue
        win.nw = out.num_kept
        red += out.reduction_count
        if win.nw:
            break
    return red


def gcg_solve(a, b=None, config=None):
    """Run the block eigensolver; returns a :class:`SolverReport`."""
    a = as_operator(a)
    b_op = as_operator(b) if b is not None else None
    cfg = config if config is not None else SolverConfig()
    n = a.dim
    if b_op is not None and b_op.dim != n:
        raise InvalidShape(f"B dim {b_op.dim} != A dim {n}")
    if cfg.max_gcg_iters < 1:
        raise InvalidShape(f"max_gcg_iters must be at least 1, got {cfg.max_gcg_iters}")
    ne = int(cfg.num_eigen)
    bs, sx = resolve_block_sizes(cfg, n)
    ocfg = cfg.orth

    win = _Window(mv_new(n, sx + 2 * bs), np.zeros(sx + 2 * bs), sx)
    try:
        start_red = _starting_block(win.v, sx, b_op, ocfg, cfg.seed)
    except AllDependent:
        if b_op is not None:
            _check_b_definite(b_op, sx, cfg.seed, ocfg.dependence_tol)
        raise

    history, status = [], "max_iterations"
    for it in range(1, cfg.max_gcg_iters + 1):
        timer = _Timer()
        basis = win.v[:, win.locked : win.sx + win.np_ + win.nw]   # active X, P, W
        abar = _project(win, a, basis)
        defect = None
        if cfg.cross_check_abar and win.ritz:
            naive = mv_inner_prod(basis, a.apply(basis))
            defect = float(np.abs(abar - (naive + naive.T) / 2.0).max())
        timer.lap("t_step3")

        # the whole spectrum: the Ritz block is its leading columns, and a
        # slide keeps the rest as the next window
        full = sym_eig_full(abar)
        d = win.sx - win.locked
        dec = SpectralDecomposition(full.values[:d], full.vectors[:, :d])
        x_new = np.matmul(basis, dec.vectors, out=mv_new(n, dec.vectors.shape[1]))
        timer.lap("t_step3")

        stored = win.stored
        limit = max(0, min(win.sx - win.locked, ne - stored - win.locked))
        newly, first_res = _count_converged(a, b_op, x_new, dec.values, limit, bs, cfg.tol)
        c = win.locked + newly
        # one record per iteration, filled in as the phases run
        rec = IterationRecord(
            it, stored + c, first_res, 0.0, 0, basis.shape[1], 0, timer.marks, None, defect
        )
        history.append(rec)
        timer.lap("t_step4")
        if rec.num_converged >= ne:
            win.lock(x_new, dec.values, c)
            # unlike every other record's, this theta is taken after locking
            rec.theta = select_shift(cfg.shift_mode, win.lam, win.locked, win.store_vals)
            status = "converged"
            break

        win.ritz = True
        # a narrow late window can fill up before the 2*bs mark; it slides too
        slide = cfg.moving and c > 0 and (c >= 2 * bs or c >= win.sx)
        if slide:
            rec.orth_reductions += _slide(
                win, full, basis, newly, bs, n, b_op, ocfg, cfg.seed + 104729 * it
            )
            c = 0
        timer.lap("t_step4")

        rec.theta = select_shift(cfg.shift_mode, win.lam, win.locked, win.store_vals)
        if win.ritz:   # else the refilled window is projected afresh first
            width = max(1, min(bs, ne - win.stored - c, win.sx - c))
            if not slide:
                _lock_and_momentum(win, basis, abar, x_new, dec, c, width, ocfg.dependence_tol)
            timer.lap("t_step5")
            # W never reaches past the dimension the store, X and P leave
            width = min(width, n - win.stored - win.sx - win.np_)
            win.nw = 0
            if width > 0:
                cg = _damp(win, a, b_op, width, rec.theta, cfg)
                rec.cg_iterations = cg.iterations
                rec.cg_converged = int(cg.converged.sum())
                rec.cg_frozen = int(cg.frozen.sum())
                timer.lap("t_step6")
                rec.orth_reductions += _orth_w(win, b_op, ocfg, width, cfg.seed + 7919 * it)
                timer.lap("t_step2")
            elif win.store_x:
                # they span the whole space, and the store's own errors put a
                # floor under the last residuals: fold the store back in
                win.fold(2 * bs)
        if cfg.instrument_orth:
            span = win.v[:, : win.sx + win.np_ + win.nw]
            gram = mv_inner_prod(span, span, b=b_op)
            rec.basis_defect = float(np.abs(gram - np.eye(gram.shape[0])).max())

    # ascending order: the store first, then the live window, padded past
    # its locked prefix with unconverged Ritz pairs up to num_eigen
    stored = win.stored
    k = min(ne - stored, win.sx)
    values = np.concatenate(win.store_vals + [win.lam[:k]])
    vectors = np.asfortranarray(np.hstack(win.store_x + [win.v[:, :k]]))
    residuals = np.fromiter(_residuals(a, b_op, vectors, values, bs), float, values.shape[0])

    return SolverReport(
        status=status,
        eigenvalues=values,
        eigenvectors=vectors,
        num_converged=min(stored + win.locked, ne),
        iterations=len(history),
        residuals=residuals,
        history=history,
        stagnated=_stagnation_flag(history, cfg.stall_window),
        max_projection_dim=max(rec.basis_size for rec in history),
        total_reductions=start_red + sum(rec.orth_reductions for rec in history),
    )
