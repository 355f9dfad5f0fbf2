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
problem never grows past 5*block_size columns.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .cg import block_cg
from .dense import gram_svd, sym_eig_full, sym_eig_range
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
    deterministic: bool = False
    orth: OrthConfig = field(default_factory=OrthConfig)
    collect_history: bool = True
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
    backend: str


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


def _count_converged(a, b_op, x_new, lam_new, limit, chunk, tol):
    """Length of the converged prefix of the freshly computed Ritz block.

    Residuals are evaluated in chunks of the block size so one failed
    column stops the (operator-application) spending early.
    """
    count = 0
    for start in range(0, limit, chunk):
        stop = min(start + chunk, limit)
        xc = np.asfortranarray(x_new[:, start:stop])
        axc = a.apply(xc)
        bxc = b_op.apply(xc) if b_op is not None else xc
        for j in range(stop - start):
            rel = _rel_residual(
                axc[:, j], xc[:, j], bxc[:, j], float(lam_new[start + j]), b_op is not None
            )
            if rel < tol:
                count += 1
            else:
                return count, rel
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
    def __init__(self, enabled):
        self.enabled = enabled
        self.marks = {k: 0.0 for k in _TIMING_KEYS}
        self._last = time.perf_counter()

    def lap(self, key):
        now = time.perf_counter()
        if self.enabled:
            self.marks[key] += now - self._last
        self._last = now


def gcg_solve(a, b=None, config=None):
    """Run the block eigensolver; returns a :class:`SolverReport`."""
    a = as_operator(a)
    b_op = as_operator(b) if b is not None else None
    cfg = config if config is not None else SolverConfig()
    n = a.dim
    if b_op is not None and b_op.dim != n:
        raise InvalidShape(f"B dim {b_op.dim} != A dim {n}")
    ne = int(cfg.num_eigen)
    bs, sx = resolve_block_sizes(cfg, n)
    ocfg = cfg.orth
    det = cfg.deterministic

    v = mv_new(n, sx + 2 * bs)
    lam = np.zeros(sx + 2 * bs)
    try:
        total_red = _starting_block(v, sx, b_op, ocfg, cfg.seed)
    except AllDependent:
        if b_op is not None:
            _check_b_definite(b_op, sx, cfg.seed, ocfg.dependence_tol)
        raise

    locked = 0                 # converged columns of the current X block
    np_, nw = 0, 0             # current P / W widths
    abar_prev = None           # previous projected matrix (None => assemble naively)
    p_coupling = None          # phat' Abar_prev phat, for the P block
    store_x, store_vals = [], []   # moving-window spillover
    shift_op, shift_theta = None, None  # inner-solve operator, rebuilt per theta
    history = []
    max_m = 0
    status = "max_iterations"
    iters_run = 0

    for it in range(1, cfg.max_gcg_iters + 1):
        iters_run = it
        timer = _Timer(not det)
        d = sx - locked
        m = d + np_ + nw
        max_m = max(max_m, m)
        basis = v[:, locked : sx + np_ + nw]

        # projected matrix: structured after the first pass
        if abar_prev is None:
            abar = mv_inner_prod(basis, a.apply(basis), deterministic=det)
        else:
            abar = np.zeros((m, m), order="F")
            abar[:d, :d] = np.diag(lam[locked:sx])
            if np_:
                abar[d : d + np_, d : d + np_] = p_coupling
            if nw:
                aw = a.apply(v[:, sx + np_ : sx + np_ + nw])
                cross = mv_inner_prod(basis, aw, deterministic=det)
                abar[:, d + np_ :] = cross
                abar[d + np_ :, :] = cross.T
        abar = (abar + abar.T) / 2.0
        abar_defect = None
        if cfg.cross_check_abar and abar_prev is not None:
            naive = mv_inner_prod(basis, a.apply(basis), deterministic=det)
            abar_defect = float(np.abs(abar - (naive + naive.T) / 2.0).max())
        timer.lap("t_step3")

        dec = sym_eig_range(abar, 1, d)
        lam_new = dec.values
        coeffs = dec.vectors                      # m x d
        x_new = np.asfortranarray(basis @ coeffs)
        timer.lap("t_step3")

        stored = sum(len(vv) for vv in store_vals)
        limit = max(0, min(sx - locked, ne - stored - locked))
        newly, first_res = _count_converged(a, b_op, x_new, lam_new, limit, bs, cfg.tol)
        c = locked + newly
        total_locked = stored + c
        timer.lap("t_step4")

        if total_locked >= ne:
            v[:, locked:sx] = x_new
            lam[locked:sx] = lam_new
            locked = c
            status = "converged"
            if cfg.collect_history:
                theta = select_shift(cfg.shift_mode, lam, locked, store_vals)
                history.append(
                    IterationRecord(
                        it, total_locked, first_res, theta, 0, m, 0, timer.marks,
                        None, abar_defect,
                    )
                )
            break

        compacted = refilled = False
        iter_red = 0
        if cfg.moving and c > 0 and (c >= 2 * bs or c >= sx):
            # window slide: emit every verified pair, keep the rest of the
            # projected spectrum as the new (narrower) window.  Narrow
            # late windows can fill up before reaching the nominal
            # 2*block_size mark; an exhausted window must slide too.
            full = sym_eig_full(abar)
            x_all = np.asfortranarray(basis @ full.vectors)
            # emitted pairs = columns locked in earlier passes plus the
            # prefix verified just now; the projected basis only spans the
            # unlocked part, so those two groups live in different arrays
            store_x.append(np.asfortranarray(np.hstack([v[:, :locked], x_all[:, :newly]])))
            store_vals.append(np.concatenate([lam[:locked], full.values[:newly]]))
            stored += c
            sx = m - newly
            if sx:
                v[:, :sx] = x_all[:, newly:]
                lam[:sx] = full.values[newly:]
            locked = 0
            np_, nw = 0, 0
            p_coupling = None
            compacted = True
            c = 0
            if sx < bs:
                # window nearly exhausted before the wanted count was
                # reached: top it up with fresh random directions and let
                # the next pass rebuild the projection from scratch
                add = min(3 * bs, n - stored) - sx
                if add > 0:
                    mv_set_random(v[:, sx : sx + add], cfg.seed + 104729 * it)
                    defl = np.asfortranarray(np.hstack(store_x + [v[:, :sx]]))
                    ro = orth_against(v[:, sx : sx + add], defl, b=b_op, cfg=ocfg)
                    iter_red += ro.reduction_count
                    sx += ro.num_kept
                refilled = True
                if sx <= 0:
                    raise AllDependent("moving window could not be refilled")
        timer.lap("t_step4")

        theta = select_shift(cfg.shift_mode, lam, locked, store_vals)
        cg_iters = cg_conv = cg_frozen = 0
        if not refilled:
            if compacted:
                bs_eff = max(1, min(bs, ne - stored, sx))
            else:
                bs_eff = max(1, min(bs, ne - stored - c, sx - c))
                phat = _build_p(coeffs, d, c - locked, bs_eff, ocfg.dependence_tol)
                if phat is None:
                    p_new, p_coupling = None, None
                else:
                    p_new = np.asfortranarray(basis @ phat)
                    p_coupling = phat.T @ (abar @ phat)
                v[:, locked:sx] = x_new
                lam[locked:sx] = lam_new
                locked = c
                np_ = 0 if p_new is None else p_new.shape[1]
                if np_:
                    v[:, sx : sx + np_] = p_new
            timer.lap("t_step5")

            # damped inverse power block
            x_act = np.asfortranarray(v[:, locked : locked + bs_eff])
            lam_act = lam[locked : locked + bs_eff]
            bx_act = b_op.apply(x_act) if b_op is not None else x_act.copy()
            rhs = np.asfortranarray(bx_act * (lam_act - theta))
            if theta != shift_theta:
                shift_op = None   # free the old assembled matrix first
                shift_op = a if theta == 0.0 else ShiftedOperator(a, b_op, theta)
                shift_theta = theta
            w_raw, cg_rep = block_cg(
                shift_op, rhs, x0=x_act, max_iters=cfg.cg_max_iters, rel_tol=cfg.cg_rel_tol
            )
            cg_iters = cg_rep.iterations
            cg_conv = int(cg_rep.converged.sum())
            cg_frozen = int(cg_rep.frozen.sum())
            timer.lap("t_step6")

            w_region = v[:, sx + np_ : sx + np_ + bs_eff]
            w_region[...] = w_raw
            if store_x:
                defl = np.asfortranarray(np.hstack(store_x + [v[:, : sx + np_]]))
            else:
                defl = v[:, : sx + np_]
            try:
                w_out = orth_against(w_region, defl, b=b_op, cfg=ocfg)
                nw = w_out.num_kept
                iter_red += w_out.reduction_count
            except AllDependent:
                nw = 0
            if nw == 0:
                # the damped block collapsed into the current span; replace
                # it with fresh random directions so the search still widens
                mv_set_random(w_region, cfg.seed + 7919 * it)
                try:
                    w_out = orth_against(w_region, defl, b=b_op, cfg=ocfg)
                    nw = w_out.num_kept
                    iter_red += w_out.reduction_count
                except AllDependent:
                    nw = 0
            timer.lap("t_step2")

        total_red += iter_red

        basis_defect = None
        if cfg.instrument_orth:
            full_basis = v[:, : sx + np_ + nw]
            gram = mv_inner_prod(full_basis, full_basis, b=b_op, deterministic=det)
            basis_defect = float(np.abs(gram - np.eye(gram.shape[0])).max())

        abar_prev = None if refilled else abar
        if cfg.collect_history:
            history.append(
                IterationRecord(
                    it,
                    total_locked,
                    first_res,
                    theta,
                    cg_iters,
                    m,
                    iter_red,
                    timer.marks,
                    basis_defect,
                    abar_defect,
                    cg_conv,
                    cg_frozen,
                )
            )

    # assemble the result in ascending order: spilled store first, then the
    # live window
    if store_x:
        all_x = np.asfortranarray(np.hstack(store_x + [v[:, :locked]]))
        all_vals = np.concatenate(store_vals + [lam[:locked]])
        n_conv = all_vals.shape[0]
        if n_conv < ne:  # ran out of iterations mid-window: pad with Ritz data
            extra = min(ne - n_conv, sx - locked)
            all_x = np.asfortranarray(np.hstack([all_x, v[:, locked : locked + extra]]))
            all_vals = np.concatenate([all_vals, lam[locked : locked + extra]])
        take = min(ne, all_vals.shape[0])
        values = all_vals[:take].copy()
        vectors = np.asfortranarray(all_x[:, :take])
    else:
        n_conv = locked
        values = lam[:ne].copy()
        vectors = np.asfortranarray(v[:, :ne])

    residuals = np.empty(values.shape[0])
    if values.shape[0]:
        ax = a.apply(vectors)
        bx = b_op.apply(vectors) if b_op is not None else vectors
        for j in range(values.shape[0]):
            residuals[j] = _rel_residual(
                ax[:, j], vectors[:, j], bx[:, j], float(values[j]), b_op is not None
            )

    return SolverReport(
        status=status,
        eigenvalues=values,
        eigenvectors=vectors,
        num_converged=min(n_conv, ne),
        iterations=iters_run,
        residuals=residuals,
        history=history,
        stagnated=_stagnation_flag(history, cfg.stall_window),
        max_projection_dim=max_m,
        total_reductions=total_red,
        backend=kernels.backend_name(),
    )
