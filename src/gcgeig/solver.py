"""Block damping inverse power iteration for symmetric eigenproblems.

Finds the ``num_eigen`` smallest eigenpairs of ``A x = lambda x`` or
``A x = lambda B x`` (A symmetric, B symmetric positive definite) from
products with blocks of vectors.  Each iteration works in the subspace
spanned by ``[X, P, W]``:

* X holds the current Ritz vectors; converged leading columns are locked
  and leave the projected problem.
* P carries the momentum directions: the part of the previous step kept
  out of span(X), built purely in coefficient space, in closed form from
  the Rayleigh-Ritz eigenvectors past the Ritz block (``_build_p``).
* W is a damped inverse power update: a few CG sweeps on
  ``(A - theta*B) W = B X (Lambda - theta)``, run for the correction
  ``W - X``, which the basis keeps, from zero against the residual ``-R =
  B X Lambda - A X`` of X, taken in float64 (``_damp``).  The sweeps run in
  float32 where the Gershgorin bounds of CSR matrices A and B prove it safe
  (``_single_precision``), and in float64 otherwise.  Once a pair is
  locked, a CG column that freezes on a nonpositive curvature returns the
  iterate with its smallest residual, not the overshoot of its last step;
  one that would return the zero start returns its first preconditioned
  residual.  The
  "dynamic" theta is the largest converged eigenvalue so far; before any
  converges it is a floor under the spectrum (``_spectrum_floor``), or 10%
  below the lowest Ritz value when that is negative, so an indefinite A
  still draws the step to the bottom of its spectrum and not to the
  eigenvalues nearest 0.  The floor comes from the Gershgorin intervals of
  CSR matrices A and B, once per solve, and is positive only when A's lies
  above 0; every other input gets 0.  Shift "none" keeps 0.
  When A is a CSR matrix, CG is preconditioned (``_precond``): by A's band
  Cholesky factor, with the locked pairs projected out, when the factor
  takes no more room than A and exists; else by ``1 / diag(A)`` when that
  diagonal is positive.  Every other A gets plain CG.

The projected matrix is assembled structurally - the X block is the
diagonal of Ritz values, the X-P block vanishes by construction, the P
block is carried forward in coefficient space - so A is applied only to W
once per iteration plus a chunk of the convergence check.

With ``moving=True`` the solver hunts many eigenpairs with a sliding
window of width 3*block_size: whenever 2*block_size columns of the window
have converged they join the converged prefix of the basis array, which
the window moves past without copying it (the prefix keeps deflating W but
leaves the projected problem), so the projected problem does not grow past
5*block_size columns until the prefix, X and P span the whole space; then
the prefix is folded back into X and all ``n`` columns are projected
afresh.

The basis array ``v`` is the one n-row array a solve keeps.  The new X and
P are written into it in place, ``_ROW_BLOCK`` rows at a time; the
convergence check forms the Ritz vectors ``block_size`` columns at a time
as it goes, and the projection applies A to at most ``_CHUNK_COLS``
columns at a time.  The other n-row arrays are the inner CG's and W's
orthogonalization work arrays, ``block_size`` wide, and, once per solve,
the deflation temporaries of the starting block, half of X wide.  A wide
solve of clustered-random n=2000 with 200 pairs peaks at 1.8 times ``v``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .cg import block_cg
from .dense import SpectralDecomposition, sym_eig_full
# unused here, but perfbench/tracing.py patches these names in this module
from .dense import gram_svd, sym_eig_range  # noqa: F401
from .errors import AllDependent, InvalidMatrix, InvalidShape
from .multivec import mv_inner_prod, mv_new, mv_set_random
from .operators import CsrOperator, ShiftedOperator, as_operator
from .orth import DEPENDENCE_TOL, orth_against, recursive_orth_svd

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
_SHIFT_MODES = ("dynamic", "none")
_STALL_WINDOW = 50   # iterations without progress that flag a stagnated run
# The basis is rotated in place this many rows at a time (``_rotate``).  At
# n=2000 and 400 columns a 256-row block is about 8% slower than one product
# into a fresh array, 512 rows about 3%, and its buffer is a quarter of the
# fresh array.
_ROW_BLOCK = 512
# The unstructured projection applies A to this many columns at a time
# (``_project``), so its operands and product stay this wide.
_CHUNK_COLS = 64
# float32's unit roundoff
_U32 = 2.0 ** -24


@dataclass
class SolverConfig:
    num_eigen: int = 1
    tol: float = 1e-8
    block_size: int | None = None      # default ceil(num_eigen / 5)
    max_gcg_iters: int = 1000
    cg_max_iters: int = 30
    cg_rel_tol: float = 0.01
    shift_mode: str = "dynamic"        # one of _SHIFT_MODES
    moving: bool = False
    seed: int = 0


@dataclass
class IterationRecord:
    iteration: int
    num_converged: int
    first_unconverged_residual: float
    basis_size: int
    # filled in as the phases run
    theta: float = 0.0
    cg_iterations: int = 0
    orth_reductions: int = 0
    timings: dict = field(default_factory=dict)
    cg_converged: int = 0              # inner CG columns that met rel_tol
    cg_frozen: int = 0                 # inner CG columns stopped on nonpositive curvature


@dataclass
class SolverReport:
    """What a solve returns.  ``eigenvalues`` are the Rayleigh quotients of
    the columns of ``eigenvectors``, and ``residuals`` are taken against
    them; the first ``num_converged`` pairs, and the rest, are each in
    ascending order.  There are ``num_eigen`` pairs, except that a moving
    run stopped at ``max_gcg_iters`` holds only its stored pairs and its
    window's X, which can be fewer."""

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
    """The ``(block_size, size_x)`` a solve of dimension ``n`` works with:
    X is ``num_eigen + 3*block_size`` wide, or ``3*block_size`` for the
    moving window, and never wider than ``n``."""
    ne = int(config.num_eigen)
    if not (1 <= ne <= n):
        raise InvalidShape(f"num_eigen must be in 1..{n}, got {ne}")
    bs = config.block_size if config.block_size is not None else max(1, math.ceil(ne / 5))
    if bs < 1:
        raise InvalidShape(f"block_size must be at least 1, got {bs}")
    bs = min(bs, n)
    if config.moving:
        return bs, min(3 * bs, n)
    return bs, min(ne + 3 * bs, n)


def select_shift(mode, lam, num_locked, floor=0.0):
    """Damping shift: the largest eigenvalue locked so far.  Before any is
    locked, ``floor``, a lower bound on the spectrum (``_spectrum_floor``),
    or 10% below the lowest Ritz value when that is negative.  Mode "none"
    always returns 0."""
    if mode not in _SHIFT_MODES:
        raise InvalidShape(f"unknown shift mode {mode!r}")
    if mode == "none":
        return 0.0
    if num_locked <= 0:
        low = float(lam[0])
        return low - 0.1 * abs(low) if low < 0.0 else float(floor)
    return float(lam[num_locked - 1])


def _spectrum_floor(a, b_op):
    """A positive lower bound on the eigenvalues of ``(A, B)``, or 0.  For a
    CSR matrix A whose Gershgorin interval starts at ``lo_A > 0`` it is
    ``lo_A``, or ``lo_A / hi_B`` with a CSR matrix B whose interval ends at
    ``hi_B``, since ``x'Ax >= lo_A x'x`` and ``x'Bx <= hi_B x'x``.  Every
    other input gets 0."""
    if not isinstance(a, CsrOperator):
        return 0.0
    if b_op is not None and not isinstance(b_op, CsrOperator):
        return 0.0
    lo = a.gershgorin()[0]
    if not lo > 0.0:
        return 0.0
    if b_op is None:
        return lo
    hi = b_op.gershgorin()[1]
    return lo / hi if hi > 0.0 else 0.0


def _single_precision(a, b_op, rel_tol):
    """The Gershgorin upper ends ``(hi_A, hi_B)`` when the inner CG may run
    in float32, else None.  A must be a CSR matrix and B a CSR matrix or
    None (taken as ``(lo_B, hi_B) = (1, 1)``), both Gershgorin intervals
    must start above 0, and ``kappa_G = (hi_A / lo_A) * (hi_B / lo_B)``, a
    bound on the condition of the pencil, must keep float32's rounding
    amplified by it a hundred times below the inner tolerance:
    ``kappa_G * 2**-24 <= rel_tol / 100`` (README, "Inner solves")."""
    if not isinstance(a, CsrOperator) or not isinstance(b_op, (CsrOperator, type(None))):
        return None
    lo_a, hi_a = a.gershgorin()
    lo_b, hi_b = (1.0, 1.0) if b_op is None else b_op.gershgorin()
    if not (lo_a > 0.0 and lo_b > 0.0):
        return None
    kappa = (hi_a / lo_a) * (hi_b / lo_b)
    return (hi_a, hi_b) if kappa * _U32 <= rel_tol / 100.0 else None


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


def _residuals(a, b_op, blocks, lam, quotients=False):
    """Relative residual of each column of the column blocks ``blocks``,
    taken in order, against the values ``lam``.  With ``quotients`` each
    value is first overwritten by its column's Rayleigh quotient
    ``x'Ax / x'Bx``.  A and B are applied one block at a time as the blocks
    are drawn, so a caller that stops early stops the operator applications
    too."""
    done = 0
    for xc in blocks:
        axc = a.apply(xc)
        bxc = b_op.apply(xc) if b_op is not None else xc
        for j in range(xc.shape[1]):
            if quotients:
                lam[done + j] = float(xc[:, j] @ axc[:, j]) / float(xc[:, j] @ bxc[:, j])
            yield _rel_residual(
                axc[:, j], xc[:, j], bxc[:, j], float(lam[done + j]), b_op is not None
            )
        done += xc.shape[1]


def _count_converged(a, b_op, basis, dec, limit, chunk, tol):
    """Length of the converged prefix of the new Ritz block ``basis @
    dec.vectors``, and the residual of the first column that failed (0.0
    if none did).  The Ritz vectors are formed ``chunk`` columns at a time,
    as the check reaches them."""
    def ritz_blocks():
        for start in range(0, limit, chunk):
            coeffs = dec.vectors[:, start : min(start + chunk, limit)]
            yield np.matmul(basis, coeffs, out=mv_new(basis.shape[0], coeffs.shape[1]))

    count = 0
    for rel in _residuals(a, b_op, ritz_blocks(), dec.values):
        if not rel < tol:
            return count, rel
        count += 1
    return count, 0.0


def _build_p(full, d, group_start, group_width):
    """Momentum coefficients ``phat`` and their coupling ``phat' Abar phat``:
    the group's Ritz coefficients with the X rows zeroed, projected off the
    Ritz block ``Y[:, :d]`` and orthonormalized.  ``F = Y[:, d:]`` spans the
    complement and is orthogonal to the group, so the projection is ``F S``
    with ``S = -F[:d]' Y[:d, group]``; ``phat = F U`` for S's left singular
    vectors ``U`` above the dependence floor, and ``F' Abar F`` is diagonal.
    None when nothing is left, as at the first iteration, where ``d = m``."""
    y = full.vectors
    if y.shape[0] <= d:
        return None
    s = -y[:d, d:].T @ y[:d, group_start : group_start + group_width]
    u, sig, _ = np.linalg.svd(s, full_matrices=False)
    # DEPENDENCE_TOL is a floor on Gram eigenvalues, which are sig**2
    u = u[:, sig > math.sqrt(DEPENDENCE_TOL) * sig.max(initial=0.0)]
    if not u.shape[1]:
        return None
    return y[:, d:] @ u, (u.T * full.values[d:]) @ u


def _starting_block(v, sx, b_op, seed):
    """B-orthonormalize a random block into v[:, :sx], retrying the dropped
    columns once; returns the reductions spent."""
    mv_set_random(v[:, :sx], seed)
    out = recursive_orth_svd(v, 1, sx, b=b_op)
    reductions = out.reduction_count
    if out.num_kept < sx:
        mv_set_random(v[:, out.num_kept : sx], seed + 9973)
        out = recursive_orth_svd(v, 1, sx, b=b_op)
        reductions += out.reduction_count
        if out.num_kept < sx:
            raise AllDependent("could not build a full-rank starting block")
    return reductions


def _check_b_definite(b_op, sx, seed):
    """Raise InvalidMatrix when the B-Gram of the random starting block has
    an eigenvalue below -DEPENDENCE_TOL times its largest magnitude."""
    x = mv_set_random(mv_new(b_op.dim, sx), seed)
    g = x.T @ b_op.apply(x)
    vals = np.linalg.eigvalsh((g + g.T) / 2.0)
    scale = float(np.abs(vals).max(initial=0.0))
    if vals[0] < -DEPENDENCE_TOL * scale:
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
    """The live state of one solve.  ``v`` holds, left to right: the
    ``stored`` pairs the moving window has passed, X up to column ``sx``
    (converged and locked up to ``locked``, which is at least ``stored``),
    then P and W of widths ``np_`` and ``nw``.  ``lam`` holds the Ritz
    values of the first ``sx`` columns.  Without a moving window
    ``stored`` stays 0."""

    v: np.ndarray
    lam: np.ndarray
    sx: int
    stored: int = 0
    locked: int = 0
    np_: int = 0
    nw: int = 0
    ritz: bool = False                  # X holds Ritz vectors: project structurally
    p_coupling: np.ndarray | None = None    # phat' Abar phat, the next P block
    shift_op: object = None             # inner-solve operator, rebuilt per theta
    shift_theta: float | None = None
    a_solve: object = None              # A's band Cholesky solve, or None
    a_scale: object = None              # else its diagonal scaling, or None
    single: tuple | None = None         # (hi_A, hi_B) when CG runs in float32
    a_solve_tried: bool = False         # all three are set at the first damped step

    def deflation(self):
        """What W is kept B-orthogonal to: the stored pairs, X and P."""
        return self.v[:, : self.sx + self.np_]

    def fold(self):
        """Make the stored pairs, X and P the new X, unlocked, so the next
        pass projects them afresh."""
        self.sx += self.np_
        self.stored = self.locked = self.np_ = self.nw = 0
        self.ritz = False

    def lock(self, basis, lam_new, c, *coeffs):
        """Rotate the active basis in place by the coefficient blocks: the
        new Ritz block, with values ``lam_new``, lands over the active X and
        a momentum block, if given, right after it.  Lock X's first ``c``."""
        _rotate(self.v, self.locked, basis, *coeffs)
        self.lam[self.locked : self.sx] = lam_new
        self.locked = c


def _rotate(v, lo, basis, *coeffs):
    """Write the products ``basis @ c``, one per coefficient block ``c``, side
    by side into ``v`` from column ``lo`` on, where ``basis`` is a run of
    columns of ``v`` from ``lo`` on.  It goes row block by row block, each
    read whole before it is written, so no n-row temporary is needed.  Each
    block is its own product: a one-column block takes the matrix-vector
    path and rounds as a separate ``basis @ c`` would."""
    n, k = basis.shape[0], sum(c.shape[1] for c in coeffs)
    buf = np.empty((min(_ROW_BLOCK, n), k), order="F")
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, min(start + _ROW_BLOCK, n))
        block, col = buf[: rows.stop - start], 0
        for c in coeffs:
            np.matmul(basis[rows], c, out=block[:, col : col + c.shape[1]])
            col += c.shape[1]
        v[rows, lo : lo + k] = block


def _project(win, a, basis):
    """The projected matrix ``basis' A basis``.  Once X holds Ritz vectors
    its block is diag(lam), the X-P block vanishes and the P block is the
    carried coupling, so A is applied to W only.  A is applied to at most
    _CHUNK_COLS columns at a time, so no n-row temporary is wider."""
    m = basis.shape[1]
    abar = np.zeros((m, m), order="F")
    lo = 0
    if win.ritz:
        d, lo = win.sx - win.locked, win.sx - win.locked + win.np_
        abar[:d, :d] = np.diag(win.lam[win.locked : win.sx])
        if win.np_:
            abar[d:lo, d:lo] = win.p_coupling
    for start in range(lo, m, _CHUNK_COLS):
        cols = slice(start, min(start + _CHUNK_COLS, m))
        abar[:, cols] = mv_inner_prod(basis, a.apply(basis[:, cols]))
    abar[lo:, :lo] = abar[:lo, lo:].T
    return (abar + abar.T) / 2.0


def _slide(win, full, basis, newly, bs, n, b_op, seed):
    """Moving window: the locked columns and the verified prefix of the
    projected spectrum ``full`` become stored pairs, and the rest of it the
    new, narrower window.  A window left narrower than ``bs`` is topped up
    with random directions, and X then no longer holds Ritz vectors.
    Returns the reductions spent."""
    lo, m = win.locked, full.vectors.shape[1]
    _rotate(win.v, lo, basis, full.vectors)
    win.lam[lo : lo + m] = full.values
    win.stored = win.locked = lo + newly
    win.sx = lo + m
    win.np_ = win.nw = 0
    if win.sx - win.stored >= bs:
        return 0
    # narrow late windows can be exhausted before the wanted count is
    # reached: refill and let the next pass project from scratch
    win.ritz = False
    add = min(win.stored + 3 * bs, n) - win.sx
    red = 0
    if add > 0:
        fresh = win.v[:, win.sx : win.sx + add]
        mv_set_random(fresh, seed)
        out = orth_against(fresh, win.deflation(), b=b_op)
        red = out.reduction_count
        win.sx += out.num_kept
    if win.sx <= win.stored:
        raise AllDependent("moving window could not be refilled")
    return red


def _lock_and_momentum(win, basis, full, c, group):
    """Lock the converged prefix of the Ritz block, the leading ``sx -
    locked`` columns of the projected spectrum ``full``, and build P in
    closed form from the rest of it (``_build_p``); X and P are written in
    one rotation of the basis."""
    d = win.sx - win.locked
    blocks = [full.vectors[:, :d]]
    built = _build_p(full, d, c - win.locked, group)
    win.np_ = 0
    if built is not None:
        phat, win.p_coupling = built
        win.np_ = phat.shape[1]
        blocks.append(phat)
    win.lock(basis, full.values[:d], c, *blocks)


def _precond(win, a, b_op, rel_tol):
    """The inner CG's preconditioner, or None for plain CG.  A CSR matrix A
    gets its band Cholesky solve, when ``CsrOperator.band_solver`` builds
    one, followed by a B-orthogonal projection against the locked pairs, on
    whose span ``A - theta*B`` is not positive definite.  Otherwise it gets
    the scaling by ``1 / diag(A)`` when ``CsrOperator.diagonal_solver``
    builds one, without the projection: the solves converge without it,
    and on the moving window, whose locked prefix holds the whole store,
    it cost more than the scaling saved.  The scaling is float32 when
    ``_single_precision`` admits the problem, which also sets
    ``win.single``."""
    if not win.a_solve_tried:
        win.a_solve_tried = True
        if isinstance(a, CsrOperator):
            win.a_solve = a.band_solver()
            if win.a_solve is None:
                win.single = _single_precision(a, b_op, rel_tol)
                dtype = np.float64 if win.single is None else np.float32
                win.a_scale = a.diagonal_solver(dtype)
    if win.a_solve is None:
        return win.a_scale
    solve, q = win.a_solve, win.v[:, : win.locked]

    def apply(r, out):
        out[...] = solve(r)
        if q.shape[1]:
            bz = b_op.apply(out) if b_op is not None else out
            out -= q @ (q.T @ bz)

    return apply


def _damp(win, a, b_op, width, theta, cfg):
    """The damped inverse power block: a few CG sweeps on
    ``(A - theta*B) W = B X (Lambda - theta)`` for the active X,
    preconditioned by ``_precond``, run for the correction ``W - X`` from
    zero against X's residual ``B X (Lambda - theta) - (A - theta*B) X``,
    taken in float64.  The W slot gets that correction: it spans the same
    ``[X, P, W]``, and loses less of its norm to the deflation against X
    than W does, so ``orth_against`` repeats its deflation pass, and runs
    its post pass, less often.

    When ``win.single`` is set the residual is rounded to float32 and CG
    runs in float32, with ``A - theta*B`` assembled in float32; its
    rounding then scales with the residual, not with X.  At ``theta`` on an
    eigenvalue a float32 curvature can be pure rounding, and the step it
    gives overflows, so a column freezes once its curvature is at or below
    ``2**-24 * (hi_A + |theta| * hi_B)`` times ``p'p``, the rounding of
    ``p' (A - theta*B) p``.  Orthogonalization, Rayleigh-Ritz and the
    residual test stay float64.

    Once a pair is locked, the dynamic theta is a locked eigenvalue, so
    ``A - theta*B`` is singular on its eigenvector and negative on the
    locked ones below.  A column then often takes one huge step along a
    tiny positive curvature before it freezes, and its correction would
    be mostly basis.  So CG keeps each column's smallest-residual iterate
    in the W slot, free until CG returns (in float32, in the first half of
    its bytes), and a frozen column returns it.  Before anything locks the
    rule stays off: there a negative curvature can point to the wanted
    pair.  A frozen column whose iterate would be the zero start returns
    its first preconditioned residual instead (``block_cg``), so W does not
    collapse into the basis.  Returns the CG report."""
    lo = win.locked
    x_act = np.asfortranarray(win.v[:, lo : lo + width])
    bx_act = b_op.apply(x_act) if b_op is not None else x_act
    precond = _precond(win, a, b_op, cfg.cg_rel_tol)
    if theta != win.shift_theta:
        win.shift_op = None   # free the old assembled matrices first
        if theta == 0.0 and win.single is None:
            win.shift_op = a
        else:
            win.shift_op = ShiftedOperator(a, b_op, theta)
            if win.single is not None:
                win.shift_op.assemble_single()
        win.shift_theta = theta
    r0 = np.asfortranarray(bx_act * (win.lam[lo : lo + width] - theta))
    del bx_act   # free B X before the shifted product allocates
    r0 -= win.shift_op.apply(x_act)
    start = win.sx + win.np_
    w_slot = win.v[:, start : start + width]
    best, floor = w_slot, 0.0
    if win.single is not None:
        hi_a, hi_b = win.single
        r0 = r0.astype(np.float32)
        halves = w_slot.reshape(-1, order="F").view(np.float32)
        best = halves[: w_slot.size].reshape(w_slot.shape, order="F")
        floor = _U32 * (hi_a + abs(theta) * hi_b)
    on_locked = cfg.shift_mode == "dynamic" and win.locked > 0
    delta, rep = block_cg(
        win.shift_op, r0, max_iters=cfg.cg_max_iters, rel_tol=cfg.cg_rel_tol,
        precond=precond, best=best if on_locked else None, curvature_floor=floor,
    )
    w_slot[...] = delta
    return rep


def _orth_w(win, b_op, width, seed):
    """Deflate W against the stored pairs, X and P and B-orthonormalize it.  A
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
            out = orth_against(w, defl, b=b_op)
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
    if not cfg.tol > 0:
        raise InvalidShape(f"tol must be positive, got {cfg.tol}")
    if cfg.cg_max_iters < 0:
        raise InvalidShape(f"cg_max_iters must be at least 0, got {cfg.cg_max_iters}")
    if not cfg.cg_rel_tol >= 0:
        raise InvalidShape(f"cg_rel_tol must be at least 0, got {cfg.cg_rel_tol}")
    if cfg.seed < 0:
        raise InvalidShape(f"seed must be at least 0, got {cfg.seed}")
    if cfg.shift_mode not in _SHIFT_MODES:
        raise InvalidShape(f"unknown shift mode {cfg.shift_mode!r}")
    ne = int(cfg.num_eigen)
    bs, sx = resolve_block_sizes(cfg, n)
    floor = _spectrum_floor(a, b_op)

    # a moving run holds its stored pairs, an X of at most 3*bs columns past
    # them, and P and W of at most bs each; the stored pairs and W together
    # stay within num_eigen, so ne + 4*bs columns hold all of it
    cols = ne + 4 * bs if cfg.moving else sx + 2 * bs
    win = _Window(mv_new(n, cols), np.zeros(cols), sx)
    try:
        start_red = _starting_block(win.v, sx, b_op, cfg.seed)
    except AllDependent:
        if b_op is not None:
            _check_b_definite(b_op, sx, cfg.seed)
        raise

    history, status = [], "max_iterations"
    for it in range(1, cfg.max_gcg_iters + 1):
        timer = _Timer()
        basis = win.v[:, win.locked : win.sx + win.np_ + win.nw]   # active X, P, W
        abar = _project(win, a, basis)
        timer.lap("t_step3")

        # the whole spectrum: the Ritz block is its leading columns, and a
        # slide keeps the rest as the next window
        full = sym_eig_full(abar)
        del abar
        d = win.sx - win.locked
        dec = SpectralDecomposition(full.values[:d], full.vectors[:, :d])
        timer.lap("t_step3")

        limit = max(0, min(win.sx, ne) - win.locked)
        newly, first_res = _count_converged(a, b_op, basis, dec, limit, bs, cfg.tol)
        c = win.locked + newly
        # one record per iteration, filled in as the phases run
        rec = IterationRecord(
            iteration=it,
            num_converged=c,
            first_unconverged_residual=first_res,
            basis_size=basis.shape[1],
            timings=timer.marks,
        )
        history.append(rec)
        timer.lap("t_step4")
        if c >= ne:
            win.lock(basis, dec.values, c, dec.vectors)
            # unlike every other record's, this theta is taken after locking
            rec.theta = select_shift(cfg.shift_mode, win.lam, win.locked, floor)
            status = "converged"
            break

        win.ritz = True
        # a narrow late window can fill up before the 2*bs mark; it slides too
        slide = cfg.moving and c > win.stored and (c - win.stored >= 2 * bs or c >= win.sx)
        if slide:
            rec.orth_reductions += _slide(
                win, full, basis, newly, bs, n, b_op, cfg.seed + 104729 * it
            )
            c = win.locked
        timer.lap("t_step4")

        rec.theta = select_shift(cfg.shift_mode, win.lam, win.locked, floor)
        width = max(1, min(bs, ne - c, win.sx - c))
        if not slide:
            _lock_and_momentum(win, basis, full, c, width)
        del full, dec   # v holds what the next pass needs: free them before CG
        if win.ritz:   # else the refilled window is projected afresh first
            timer.lap("t_step5")
            # W never reaches past the dimension the stored pairs, X and P leave
            width = min(width, n - win.sx - win.np_)
            win.nw = 0
            if width > 0:
                cg = _damp(win, a, b_op, width, rec.theta, cfg)
                rec.cg_iterations = cg.iterations
                rec.cg_converged = int(cg.converged.sum())
                rec.cg_frozen = int(cg.frozen.sum())
                timer.lap("t_step6")
                rec.orth_reductions += _orth_w(win, b_op, width, cfg.seed + 7919 * it)
                timer.lap("t_step2")
            elif win.stored:
                # they span the whole space, and the stored pairs' own errors
                # put a floor under the last residuals: fold them back in
                win.fold()

    # the stored pairs, then the live window, as SolverReport describes.
    # The structured projection's carried Ritz values drift from the
    # quotients on ill-conditioned problems, and the quotients, or a later
    # window's pairs below stored ones, can break the order.  The copies
    # keep a report from pinning the whole basis
    k = min(ne, win.sx)
    nc = min(win.locked, ne)
    values = win.lam[:k].copy()
    blocks = (win.v[:, start : min(start + bs, k)] for start in range(0, k, bs))
    residuals = np.fromiter(_residuals(a, b_op, blocks, values, quotients=True), float, k)
    order = np.concatenate(
        (np.argsort(values[:nc], kind="stable"), nc + np.argsort(values[nc:], kind="stable"))
    )
    vectors = np.empty((n, k), order="F")
    for j, col in enumerate(order):   # np.take into F-order buffers the input
        vectors[:, j] = win.v[:, col]

    return SolverReport(
        status=status,
        eigenvalues=values[order],
        eigenvectors=vectors,
        num_converged=nc,
        iterations=len(history),
        residuals=residuals[order],
        history=history,
        stagnated=_stagnation_flag(history, _STALL_WINDOW),
        max_projection_dim=max(rec.basis_size for rec in history),
        total_reductions=start_red + sum(rec.orth_reductions for rec in history),
    )
