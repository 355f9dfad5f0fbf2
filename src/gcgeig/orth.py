"""Block orthogonalization in the B inner product, with reduction accounting.

Two schemes are provided:

* ``modified_block_orth`` - block modified Gram-Schmidt: the columns are
  processed in blocks of width b; each block is orthonormalized column by
  column and then removed from every later column in one blocked pass.
  For m columns this costs m + m/b - 1 global reductions when the input is
  well conditioned (each repeat loop settles in a single pass).

* ``recursive_orth_svd`` - splits the columns in halves recursively;
  blocks at or below the leaf width c = 16 are orthonormalized by scaled
  spectral factorizations of their Gram matrix, and the right half of every
  split is deflated against the finished left half.  For m = 2^eta columns
  and the nominal three Gram passes per leaf this costs m/4 - 1
  reductions.

A "reduction" is one global inner-product round: a single fused
local-multiply + reduce, the unit that would be one collective in a
distributed run.  Per-column norms are piggybacked onto a reduction whenever
the operator application they need is already in flight; they feed a
"twice is enough" test that decides whether a deflation pass must be
repeated, so benign inputs pay the nominal counts and only near-dependent
inputs pay for extra passes.

Dependent columns are overwritten with the rearmost unprocessed columns and
the active width shrinks when none remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dense import gram_svd
from .errors import AllDependent, InvalidRange, InvalidShape

__all__ = ["OrthConfig", "OrthOutcome", "modified_block_orth", "recursive_orth_svd", "orth_against"]

# Relative floor under which a Gram eigenvalue (squared column norm) marks a
# dependent column; the solver's momentum block and B check use it too.
DEPENDENCE_TOL = 1e-10
# Width c at or below which the recursive scheme factorizes a block directly.
_LEAF_WIDTH = 16
# Passes a repeat-until loop may take before it stops regardless.
_MAX_REORTH_PASSES = 3

# A deflation pass that leaves a column with less than half its squared norm
# may have cancelled badly; repeat it ("twice is enough").
_DGKS_RATIO = 0.5
# Norm-collapse ratio that triggers a repair re-projection during MGS.
_REPAIR_RATIO = 1e-8


@dataclass
class OrthConfig:
    """Tuning knobs shared by both schemes.

    ``block_width`` (b) defaults to min(m//4, 200).  ``reorth_tol`` is the
    max-abs-entry threshold for the repeat-until tests.  The leaf width of
    the recursive scheme is the constant c = 16, and the dependence floor
    is :data:`DEPENDENCE_TOL`.
    """

    block_width: int | None = None
    reorth_tol: float = 1e-10


@dataclass
class OrthOutcome:
    num_kept: int
    replaced_indices: list = field(default_factory=list)
    reduction_count: int = 0


class _Ctx:
    """Shared mutable state for one orthogonalization call."""

    def __init__(self, x, b, cfg, start, end):
        self.x = x
        self.b = b
        self.cfg = cfg
        self.start = start          # first column of the call (0-based)
        self.active_end = end       # exclusive end of not-yet-discarded columns
        self.reductions = 0
        self.replaced = []
        self.scale = 0.0            # largest squared column norm seen
        self.d = np.full(x.shape[1], np.nan)  # tracked squared B-norms

    def bdot(self, y):
        """B @ y (operator application; not a counted reduction)."""
        return y if self.b is None else self.b.apply(np.asfortranarray(y))

    def note_scale(self, vals):
        top = float(np.max(vals, initial=0.0))
        if top > self.scale:
            self.scale = top

    def pull_rear(self, slot):
        """Overwrite ``slot`` with the rearmost unprocessed column.

        Returns False when no unprocessed column remains beyond the slot, in
        which case the active width shrinks to the slot instead.
        """
        self.replaced.append(slot)
        if self.active_end - 1 > slot:
            self.active_end -= 1
            self.x[:, slot] = self.x[:, self.active_end]
            self.d[slot] = self.d[self.active_end]
            return True
        self.active_end = slot
        return False


def _resolve(cfg):
    return cfg if cfg is not None else OrthConfig()


def _seed_local_norms(ctx):
    """When B is absent, all squared column norms ride along with the first
    reduction for free (local dot products joining the same round)."""
    if ctx.b is None:
        cols = slice(ctx.start, ctx.active_end)
        ctx.d[cols] = np.einsum("ij,ij->j", ctx.x[:, cols], ctx.x[:, cols])
        ctx.note_scale(ctx.d[cols])


def _deflate_against(ctx, basis, lo, hi):
    """Repeat-until deflation of x[:, lo:hi] against an orthonormal basis.

    B is applied to the target columns, so their squared norms are fused
    into the same reduction and drive the repeat decision.  Returns the
    number of passes run.
    """
    cfg = ctx.cfg
    passes = 0
    while passes < _MAX_REORTH_PASSES:
        hi = min(hi, ctx.active_end)
        if lo >= hi or basis.shape[1] == 0:
            return passes
        target = ctx.x[:, lo:hi]
        bt = ctx.bdot(target)
        r = basis.T @ bt                              # fused reduction:
        dnew = np.einsum("ij,ij->j", target, bt)      # coefficients + norms
        ctx.reductions += 1
        passes += 1
        ctx.note_scale(dnew)
        target -= basis @ r
        if float(np.abs(r).max(initial=0.0)) <= cfg.reorth_tol:
            ctx.d[lo:hi] = np.maximum(dnew, 0.0)
            return passes
        lost = np.einsum("ij,ij->j", r, r)
        ctx.d[lo:hi] = np.maximum(dnew - lost, 0.0)
        if not np.any(lost > _DGKS_RATIO * np.maximum(dnew, 1e-300)):
            return passes
    return passes


def _leaf_svqb(ctx, lo, hi):
    """Orthonormalize x[:, lo:hi] by repeated scaled Gram factorizations."""
    cfg = ctx.cfg
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
        if defect <= cfg.reorth_tol:
            return
        dec = gram_svd((m + m.T) / 2.0)
        ctx.note_scale(dec.values)
        floor = DEPENDENCE_TOL * max(float(dec.values.max(initial=0.0)), 0.0)
        bad = int(np.searchsorted(dec.values, floor, side="right"))
        if bad == 0:
            block[...] = block @ (dec.vectors / np.sqrt(dec.values))
            if passes >= _MAX_REORTH_PASSES:
                return
            continue
        # rank deficiency: keep the well-conditioned part in the leading
        # slots, refill the rest from the rear, and start the passes over
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
        _deflate_against(ctx, ctx.x[:, lo:mid], mid, hi)
    _recurse_svd(ctx, mid, hi)


def recursive_orth_svd(x, s=None, e=None, b=None, cfg=None):
    """B-orthonormalize columns s..e of ``x`` (1-based, inclusive) in place."""
    cfg = _resolve(cfg)
    ncols = x.shape[1]
    if s is None:
        s = 1
    if e is None:
        e = ncols
    if not (1 <= s <= e <= ncols):
        raise InvalidRange(f"column range {s}..{e} invalid for width {ncols}")
    lo, hi = s - 1, e
    ctx = _Ctx(x, b, cfg, lo, hi)
    _recurse_svd(ctx, lo, hi)
    kept = ctx.active_end - lo
    if kept <= 0:
        raise AllDependent("every column in the block is linearly dependent")
    return OrthOutcome(kept, ctx.replaced, ctx.reductions)


def _mgs_block(ctx, start, stop):
    """Column-by-column orthonormalization of x[:, start:stop].

    One fused reduction per column: its squared B-norm plus the projections
    onto the remaining columns of the block.
    """
    j = start
    while j < min(stop, ctx.active_end):
        stop = min(stop, ctx.active_end)
        col = ctx.x[:, j : j + 1]
        bcol = ctx.bdot(col)
        nrm2 = float(np.vdot(col, bcol))
        fwd = ctx.x[:, j + 1 : stop].T @ bcol      # (rest-of-block, 1)
        ctx.reductions += 1
        if j == ctx.start and ctx.reductions == 1:
            _seed_local_norms(ctx)
        ctx.note_scale([nrm2])
        if nrm2 <= DEPENDENCE_TOL * ctx.scale:
            if not ctx.pull_rear(j):
                return  # no replacements left; block (and call) truncated
            if j > ctx.start:
                # incoming rear column missed the in-block projections
                _deflate_against(ctx, ctx.x[:, ctx.start : j], j, j + 1)
            continue  # reprocess slot j
        known = ctx.d[j]
        if np.isfinite(known) and nrm2 <= _REPAIR_RATIO * max(known, ctx.scale):
            # severe cumulative cancellation: re-project against everything
            # finished so far, then reprocess the slot
            _deflate_against(ctx, ctx.x[:, ctx.start : j], j, j + 1)
            ctx.d[j] = np.nan
            continue
        inv = 1.0 / np.sqrt(nrm2)
        col *= inv
        if fwd.size:
            ctx.x[:, j + 1 : stop] -= col @ (fwd.T * inv)
            drop = (fwd[:, 0] * inv) ** 2
            span = slice(j + 1, stop)
            ctx.d[span] = np.maximum(ctx.d[span] - drop, 0.0)
        ctx.d[j] = 1.0
        j += 1


def _block_deflate(ctx, start, stop):
    """Repeat-until removal of the finished block from all later columns.

    B lands on the finished block (width b), so later columns' norms cannot
    be fused here; the tracked estimates (seeded by an earlier fused round
    when one existed) stand in for them, and when no estimate is available
    the pass is taken once, with MGS-time repair as the safety net.
    """
    cfg = ctx.cfg
    passes = 0
    while passes < _MAX_REORTH_PASSES:
        stop = min(stop, ctx.active_end)
        rest = ctx.x[:, stop : ctx.active_end]
        if rest.shape[1] == 0 or stop <= start:
            return
        bblock = ctx.bdot(ctx.x[:, start:stop])
        r = rest.T @ bblock
        ctx.reductions += 1
        passes += 1
        rest -= ctx.x[:, start:stop] @ r.T
        if float(np.abs(r).max(initial=0.0)) <= cfg.reorth_tol:
            return
        lost = np.einsum("ij,ij->i", r, r)
        span = slice(stop, ctx.active_end)
        known = ctx.d[span]
        with np.errstate(invalid="ignore"):
            risky = lost > _DGKS_RATIO * np.maximum(known, 1e-300)
        ctx.d[span] = np.maximum(known - lost, 0.0)
        if not bool(np.any(risky[np.isfinite(known)])):
            return


def modified_block_orth(x, x0=None, b=None, cfg=None):
    """B-orthonormalize ``x`` in place, optionally against a fixed basis.

    ``x0`` (already B-orthonormal) is removed from every column first; then
    the blocks of width b are orthonormalized by modified Gram-Schmidt and
    swept out of the remaining columns.  Returns an :class:`OrthOutcome`;
    the kept columns occupy x[:, :num_kept].
    """
    cfg = _resolve(cfg)
    m = x.shape[1]
    if m == 0:
        return OrthOutcome(0, [], 0)
    if x0 is not None and x0.shape[1] == 0:
        x0 = None
    if x0 is not None and x0.shape[0] != x.shape[0]:
        raise InvalidShape(f"basis dim {x0.shape[0]} != block dim {x.shape[0]}")
    bw = cfg.block_width if cfg.block_width is not None else min(max(m // 4, 1), 200)
    if bw < 1:
        raise InvalidShape(f"block_width must be >= 1, got {bw}")
    ctx = _Ctx(x, b, cfg, 0, m)
    if x0 is not None:
        _deflate_against(ctx, x0, 0, m)
    start = 0
    while start < ctx.active_end:
        stop = min(start + bw, ctx.active_end)
        _mgs_block(ctx, start, stop)
        stop = min(stop, ctx.active_end)
        if stop < ctx.active_end:
            _block_deflate(ctx, start, stop)
        start = stop
    if ctx.active_end <= 0:
        raise AllDependent("every column in the block is linearly dependent")
    return OrthOutcome(ctx.active_end, ctx.replaced, ctx.reductions)


def orth_against(x, basis, b=None, cfg=None):
    """Deflate ``x`` against ``basis`` then B-orthonormalize what is left.

    The deflation is the repeat-until sweep of the blocked scheme; the
    internal orthonormalization is the recursive scheme.  Columns that shrank
    badly under deflation amplify whatever rounding residue of the basis they
    still carry when they are normalized back to unit size, so the kept block
    is deflated once more at unit scale and re-trued afterwards.  That pins
    the joint Gram defect at rounding level without discarding genuinely
    small directions.  Kept columns end up in x[:, :num_kept].
    """
    cfg = _resolve(cfg)
    if x.shape[1] == 0:
        return OrthOutcome(0, [], 0)
    ctx = _Ctx(x, b, cfg, 0, x.shape[1])
    have_basis = basis is not None and basis.shape[1] > 0
    if have_basis:
        if basis.shape[0] != x.shape[0]:
            raise InvalidShape(f"basis dim {basis.shape[0]} != block dim {x.shape[0]}")
        _deflate_against(ctx, basis, 0, x.shape[1])
    inner = recursive_orth_svd(x, 1, x.shape[1], b=b, cfg=cfg)
    kept = inner.num_kept
    replaced = list(inner.replaced_indices)
    extra = 0
    if have_basis and kept > 0:
        post = _Ctx(x, b, cfg, 0, kept)
        _deflate_against(post, basis, 0, kept)
        _leaf_svqb(post, 0, kept)
        kept = post.active_end
        replaced += post.replaced
        extra = post.reductions
        if kept <= 0:
            raise AllDependent("every column in the block is linearly dependent")
    return OrthOutcome(kept, replaced, ctx.reductions + inner.reduction_count + extra)
