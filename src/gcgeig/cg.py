"""Block conjugate gradient with per-column stopping.

Solves ``op @ w = rhs`` column by column, sharing operator applications by
sweeping over one block of the still-active columns.  The work arrays keep
the active columns as their leading prefix ``[:, :na]``: when a column
converges or freezes, a stable partition moves it behind the prefix once,
so every sweep works on contiguous views, and the caller's column order is
restored on return.  The caller is expected to pass a shifted combination
``A - theta*B``; directions with a nonpositive curvature
``p' (A - theta*B) p`` are frozen instead of being updated further.  A
frozen column stops at its current iterate or, when the caller hands over a
``best`` store, at the iterate with the smallest residual it reached: on a
``theta`` that sits on an eigenvalue the sweep before the freeze can take a
huge step along a tiny positive curvature and overshoot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidShape

__all__ = ["CgReport", "block_cg"]


@dataclass
class CgReport:
    iterations: int               # sweeps actually run
    converged: np.ndarray         # per column
    frozen: np.ndarray            # per column: stopped on nonpositive curvature
    relative_residuals: np.ndarray


def _col_dots(x, y):
    return np.einsum("ij,ij->j", x, y)


def block_cg(op, rhs, x0=None, max_iters=30, rel_tol=0.01, precond=None, best=None):
    """Return (solution, :class:`CgReport`).

    Each column stops once its residual drops below ``rel_tol`` times its
    starting residual, after ``max_iters`` sweeps, or on a nonpositive
    curvature, where it freezes.  ``best``, when given, is an n-by-k array
    that the solve may overwrite: a column whose residual rises above the
    smallest it has reached saves, in its own column of ``best``, the
    iterate that reached it, and if the column then freezes before it gets
    below that residual again it returns the saved iterate, with that
    residual in the report.  Columns that never rise, or never freeze, end
    as they would without ``best``.  ``precond``, when
    given, is called as ``precond(r, out)``: it writes the preconditioned
    residual block ``r`` into ``out``, a same-shape F-order block of a work
    array held for the whole solve, and leaves ``r`` alone.  The solver
    passes either A's band solve followed by a projection that removes the
    locked eigenvectors in the B inner product (``A - theta*B`` is not
    positive definite on their span, and the projected directions stay out
    of it) or a scaling by ``1 / diag(A)``.  Without ``precond`` the sweeps
    are plain CG.
    """
    rhs = np.asfortranarray(rhs, dtype=np.float64)
    if rhs.ndim != 2:
        raise InvalidShape(f"rhs must be 2-d, got shape {rhs.shape}")
    n, k = rhs.shape
    if op.dim != n:
        raise InvalidShape(f"operator dim {op.dim} != rhs dim {n}")
    if x0 is None:
        x = np.zeros((n, k), order="F")
        r = rhs.copy(order="F")
    else:
        if x0.shape != rhs.shape:
            raise InvalidShape(f"x0 shape {x0.shape} != rhs shape {rhs.shape}")
        x = np.array(x0, dtype=np.float64, order="F")
        r = rhs - op.apply(x)

    rn0 = np.sqrt(_col_dots(r, r))
    # Plain CG takes the first r.z against a C-order copy: einsum rounds by
    # layout, and this is the rounding the solver's results were pinned with.
    # A preconditioner writes into z, F-order like the block it is handed on
    # every later sweep.
    if precond is None:
        z = r.copy()
    else:
        z = np.empty((n, k), order="F")
        precond(r, z)
    rz = _col_dots(r, z)
    p = np.array(z, dtype=np.float64, order="F")
    q = np.empty((n, k), order="F")

    # Per-position state: position i of the work arrays holds column
    # perm[i] of the caller's block; positions [0, na) are still active.
    perm = np.arange(k)
    target = rel_tol * rn0
    rn = rn0.copy()
    stopped = rn0 <= target       # zero-residual columns are done at once
    frozen = np.zeros(k, dtype=bool)
    # smallest residual so far, and whether x still holds the iterate that
    # reached it (else it is saved in best[:, perm[i]])
    rn_best = rn0.copy()
    at_best = np.ones(k, dtype=bool)

    def retire(na, leaving):
        """Stable-partition the prefix [:na] so that the columns flagged in
        ``leaving`` move behind the columns that stay; returns the new na."""
        keep = np.flatnonzero(~leaving)
        order = np.concatenate((keep, np.flatnonzero(leaving)))
        m = keep.size
        x[:, :na] = x[:, order]
        for vec in (perm, target, rn, rz, stopped, frozen, rn_best, at_best):
            vec[:na] = vec[order]
        for work in (r, p, q):
            work[:, :m] = work[:, keep]
        return m

    na = retire(k, stopped) if stopped.any() else k
    sweeps = 0
    for _ in range(max_iters):
        if na == 0:
            break
        sweeps += 1
        pa, qa = p[:, :na], q[:, :na]
        op.apply(pa, out=qa)
        den = _col_dots(pa, qa)
        bad = den <= 0.0
        if bad.any():
            if best is not None:
                for i in np.flatnonzero(bad & ~at_best[:na]):
                    x[:, i] = best[:, perm[i]]
                    rn[i] = rn_best[i]
            frozen[:na] = bad
            stopped[:na] = bad
            den = den[~bad]
            na = retire(na, bad)
            if na == 0:
                continue
            pa, qa = p[:, :na], q[:, :na]
        alpha = rz[:na] / den
        ra = r[:, :na]
        ra -= qa * alpha
        rr = _col_dots(ra, ra)
        rn[:na] = np.sqrt(rr)
        if best is not None:
            rise = rn[:na] > rn_best[:na]
            for i in np.flatnonzero(rise & at_best[:na]):
                best[:, perm[i]] = x[:, i]   # the iterate before this sweep
            at_best[:na] = ~rise
            np.minimum(rn_best[:na], rn[:na], out=rn_best[:na])
        x[:, :na] += pa * alpha
        done = rn[:na] <= target[:na]
        if done.any():
            stopped[:na] = done
            rr = rr[~done]
            na = retire(na, done)
            if na == 0:
                continue
            pa, ra = p[:, :na], r[:, :na]
        if precond is not None:
            za = z[:, :na]
            precond(ra, za)
            rz_new = _col_dots(ra, za)
        else:
            za, rz_new = ra, rr
        pa *= rz_new / rz[:na]
        pa += za
        rz[:na] = rz_new

    inv = np.argsort(perm)
    safe = np.where(rn0 > 0.0, rn0, 1.0)
    report = CgReport(sweeps, (stopped & ~frozen)[inv], frozen[inv], rn[inv] / safe)
    return np.asfortranarray(x[:, inv]), report
