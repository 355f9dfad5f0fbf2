"""Block orthogonalization in the B inner product, with reduction accounting.

``recursive_orth_svd`` splits the columns in halves recursively; blocks at
or below the leaf width c = 16 are orthonormalized by spectral
factorizations of their Gram matrix G = V diag(d) V' (the block becomes
``block @ V / sqrt(d)``), and the right half of every split is deflated
against the finished left half.  For m = 2^eta columns and the nominal three
Gram passes per leaf this costs m/4 - 1 reductions.  ``orth_against``
deflates a block against a fixed basis first and then orthonormalizes it the
same way; it deflates the result against the basis once more only when the
first deflation pass removed most of some column, or when the
orthonormalization dropped a column or scaled up a direction that had
shrunk far below its size.

A "reduction" is one global inner-product round: a single fused
local-multiply + reduce, the unit that would be one collective in a
distributed run.  Each deflation pass fuses the squared norms of its target
columns into its reduction; they feed a "twice is enough" test that decides
whether the pass must be repeated, so benign inputs pay the nominal counts
and only near-dependent inputs pay for extra passes.

Dependent columns are overwritten with the rearmost unprocessed columns and
the active width shrinks when none remain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import gram_svd
from .errors import AllDependent, InvalidRange, InvalidShape

__all__ = ["OrthOutcome", "recursive_orth_svd", "orth_against"]

# Relative floor under which a Gram eigenvalue (squared column norm) marks a
# dependent column; the solver's momentum block and B check use it too.
DEPENDENCE_TOL = 1e-10
# Width c at or below which the recursive scheme factorizes a block directly.
_LEAF_WIDTH = 16
# Passes a repeat-until loop may take before it stops regardless.
_MAX_REORTH_PASSES = 3
# Max-abs entry of the deflation coefficients, each relative to the B-norm
# of its column, or of the Gram defect, under which a repeat-until loop stops.
_REORTH_TOL = 1e-10

# A deflation pass that leaves a column with less than half its squared norm
# may have cancelled badly; repeat it ("twice is enough").
_DGKS_RATIO = 0.5


@dataclass
class OrthOutcome:
    num_kept: int
    reduction_count: int


class _Ctx:
    """Shared mutable state for one orthogonalization call."""

    def __init__(self, x, b, end):
        self.x = x
        self.b = b
        self.active_end = end       # exclusive end of not-yet-discarded columns
        self.reductions = 0
        # the orthonormalization scaled up a direction that had shrunk far
        # below its size, and with it the rounding residue it carried
        self.amplified = False

    def bdot(self, y):
        """B @ y (operator application; not a counted reduction)."""
        return y if self.b is None else self.b.apply(np.asfortranarray(y))

    def pull_rear(self, slot):
        """Overwrite ``slot`` with the rearmost unprocessed column.

        Returns False when no unprocessed column remains beyond the slot, in
        which case the active width shrinks to the slot instead.
        """
        if self.active_end - 1 > slot:
            self.active_end -= 1
            self.x[:, slot] = self.x[:, self.active_end]
            return True
        self.active_end = slot
        return False


def _deflate_against(ctx, basis, lo, hi):
    """Repeat-until deflation of x[:, lo:hi] against an orthonormal basis.

    B is applied to the target columns, so their squared norms are fused
    into the same reduction and drive the repeat decision.  A pass whose
    coefficients are below ``_REORTH_TOL`` relative to the B-norm of their
    column ends the loop.  Returns the smallest share of its squared B-norm
    that a column kept in the first pass (1.0 when nothing was deflated).
    """
    share = 1.0
    for passes in range(_MAX_REORTH_PASSES):
        hi = min(hi, ctx.active_end)
        if lo >= hi or basis.shape[1] == 0:
            break
        target = ctx.x[:, lo:hi]
        bt = ctx.bdot(target)
        r = basis.T @ bt                              # fused reduction:
        dnew = np.einsum("ij,ij->j", target, bt)      # coefficients + norms
        ctx.reductions += 1
        target -= basis @ r
        dnew = np.maximum(dnew, 1e-300)
        lost = np.einsum("ij,ij->j", r, r)
        if passes == 0:
            share = float(np.min(1.0 - lost / dnew))
        if float(np.abs(r / np.sqrt(dnew)).max(initial=0.0)) <= _REORTH_TOL:
            break
        if not np.any(lost > _DGKS_RATIO * dnew):
            break
    return share


def _leaf_svqb(ctx, lo, hi):
    """Orthonormalize x[:, lo:hi] by repeated spectral factorizations of its
    Gram matrix."""
    passes = 0
    while True:
        hi = min(hi, ctx.active_end)
        if lo >= hi:
            return
        block = ctx.x[:, lo:hi]
        m = block.T @ ctx.bdot(block)
        ctx.reductions += 1
        passes += 1
        defect = np.abs(m - np.eye(hi - lo)).max()
        if defect <= _REORTH_TOL:
            return
        if passes > 1:      # one factorization left G off I: ill-conditioned
            ctx.amplified = True
        dec = gram_svd((m + m.T) / 2.0)
        floor = DEPENDENCE_TOL * max(float(dec.values.max(initial=0.0)), 0.0)
        bad = int(np.searchsorted(dec.values, floor, side="right"))
        if bad == 0:
            block[...] = block @ (dec.vectors / np.sqrt(dec.values))
            if passes >= _MAX_REORTH_PASSES:
                return
            continue
        # rank deficiency: keep the well-conditioned part in the leading
        # slots, refill the rest from the rear, and start the passes over
        ctx.amplified = True
        kept = hi - lo - bad
        if kept > 0:
            keep_vecs = dec.vectors[:, bad:] / np.sqrt(dec.values[bad:])
            block[:, :kept] = block @ keep_vecs
        for slot in range(lo + kept, hi):
            if not ctx.pull_rear(slot):
                break
        passes = 0


def _recurse_svd(ctx, lo, hi):
    hi = min(hi, ctx.active_end)
    if lo >= hi:
        return
    width = hi - lo
    if width <= _LEAF_WIDTH:
        _leaf_svqb(ctx, lo, hi)
        return
    mid = lo + width // 2
    _recurse_svd(ctx, lo, mid)
    mid = min(mid, ctx.active_end)
    if mid > lo and mid < ctx.active_end:
        # a column that keeps less than sqrt(DEPENDENCE_TOL) of its squared
        # norm here gets its residue scaled up over 300-fold when normalized
        if _deflate_against(ctx, ctx.x[:, lo:mid], mid, hi) < np.sqrt(DEPENDENCE_TOL):
            ctx.amplified = True
    _recurse_svd(ctx, mid, hi)


def _orthonormalize(ctx, lo, hi):
    _recurse_svd(ctx, lo, hi)
    if ctx.active_end <= lo:
        raise AllDependent("every column in the block is linearly dependent")


def recursive_orth_svd(x, s=None, e=None, b=None):
    """B-orthonormalize columns s..e of ``x`` (1-based, inclusive) in place."""
    ncols = x.shape[1]
    if s is None:
        s = 1
    if e is None:
        e = ncols
    if not (1 <= s <= e <= ncols):
        raise InvalidRange(f"column range {s}..{e} invalid for width {ncols}")
    ctx = _Ctx(x, b, e)
    _orthonormalize(ctx, s - 1, e)
    return OrthOutcome(ctx.active_end - s + 1, ctx.reductions)


def orth_against(x, basis, b=None):
    """Deflate ``x`` against ``basis`` then B-orthonormalize what is left.

    The deflation is a repeat-until sweep with a "twice is enough" test; the
    orthonormalization is the recursive scheme.  When one deflation pass
    kept at least half of every column's squared norm, what it leaves of the
    basis is at rounding level relative to each column.  Normalizing scales
    that residue up with whatever the block loses on the way: a column that
    shrank badly, so that the test repeated the pass; a column dropped as
    dependent; a split deflation that kept less than sqrt(DEPENDENCE_TOL)
    of a column's squared norm; or a leaf Gram matrix too ill-conditioned
    for one factorization.  In those cases only, the kept block is deflated
    once more at unit scale and re-trued afterwards.  That pins the joint
    Gram defect at rounding level without discarding genuinely small
    directions.  Kept columns end up in x[:, :num_kept].
    """
    if x.shape[1] == 0:
        return OrthOutcome(0, 0)
    ctx = _Ctx(x, b, x.shape[1])
    have_basis = basis is not None and basis.shape[1] > 0
    share = 1.0
    if have_basis:
        if basis.shape[0] != x.shape[0]:
            raise InvalidShape(f"basis dim {basis.shape[0]} != block dim {x.shape[0]}")
        share = _deflate_against(ctx, basis, 0, x.shape[1])
    _orthonormalize(ctx, 0, x.shape[1])
    kept = ctx.active_end
    extra = 0
    if have_basis and (share < _DGKS_RATIO or ctx.amplified):
        post = _Ctx(x, b, kept)
        _deflate_against(post, basis, 0, kept)
        _leaf_svqb(post, 0, kept)
        kept = post.active_end
        extra = post.reductions
        if kept <= 0:
            raise AllDependent("every column in the block is linearly dependent")
    return OrthOutcome(kept, ctx.reductions + extra)
