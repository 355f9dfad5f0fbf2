"""Block orthogonalization: correctness, dependence handling, and the
instrumented reduction counts that the communication model promises."""

import numpy as np
import pytest
import scipy.sparse

import gcgeig.orth
from gcgeig import orth_against, recursive_orth_svd
from gcgeig.errors import AllDependent, InvalidRange
from gcgeig.operators import CsrOperator

from conftest import block_mgs


def random_block(n, m, seed):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.uniform(-1.0, 1.0, (n, m)))


def spd_tridiag(n):
    d = 4.0 * np.ones(n)
    off = 1.0 * np.ones(n - 1)
    return CsrOperator(scipy.sparse.diags([off, d, off], [-1, 0, 1], format="csr"))


def bgram(x, b=None):
    bx = x if b is None else b.apply(np.asfortranarray(x))
    return x.T @ bx


def gram_defect(x, b=None):
    g = bgram(x, b)
    return float(np.abs(g - np.eye(g.shape[0])).max())


def span_residual(kept, original, b=None):
    """How much of the original columns lies outside span(kept)."""
    bo = original if b is None else b.apply(np.asfortranarray(original))
    proj = kept @ (kept.T @ bo)
    return float(np.abs(original - proj).max()) / float(np.abs(original).max())


# ---------------------------------------------------------------------------
# reduction counts: one fused local-dot + global reduce per unit
# ---------------------------------------------------------------------------


# The block scheme is the paper's reference, ``block_mgs`` in conftest.py.


def test_block_scheme_count_m8_b2():
    # m columns + one deflation sweep per block boundary: m + m/b - 1
    x = random_block(64, 8, seed=101)
    assert block_mgs(x, 2) == 8 + 8 // 2 - 1 == 11
    assert gram_defect(x) <= 1e-12


def test_block_scheme_count_m32_b2():
    x = random_block(256, 32, seed=202)
    assert block_mgs(x, 2) == 32 + 32 // 2 - 1 == 47


def test_recursive_count_three_leaf_passes(monkeypatch):
    # ask for an unattainable Gram defect so every leaf runs the full
    # three-pass budget: two 16-wide leaves at 3 + one split sweep = 7
    monkeypatch.setattr(gcgeig.orth, "_REORTH_TOL", 1e-15)
    x = random_block(256, 32, seed=303)
    out = recursive_orth_svd(x)
    assert out.reduction_count == 32 // 4 - 1 == 7
    assert out.num_kept == 32
    assert gram_defect(x) <= 1e-12


def test_recursive_count_adaptive_exit():
    # at the default tolerance the second Gram check already passes,
    # so each leaf stops after 2 rounds: 2 + 2 + 1
    x = random_block(256, 32, seed=304)
    out = recursive_orth_svd(x)
    assert out.reduction_count == 5
    assert gram_defect(x) <= 1e-10


# ---------------------------------------------------------------------------
# orthonormality and span, with and without a B inner product
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ["block", "recursive"])
@pytest.mark.parametrize("use_b", [False, True])
def test_gram_defect_within_tolerance(scheme, use_b):
    b = spd_tridiag(50) if use_b else None
    x = random_block(50, 8, seed=7 if use_b else 8)
    original = x.copy()
    if scheme == "block":
        block_mgs(x, 2, b=b)
    else:
        assert recursive_orth_svd(x, b=b).num_kept == 8
    assert gram_defect(x, b) <= 1e-9
    assert span_residual(x, original, b) <= 1e-10


@pytest.mark.parametrize("scheme", ["block", "recursive"])
def test_many_seeds_property_sweep(scheme):
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(10, 90))
        m = int(rng.integers(2, min(n, 24) + 1))
        x = np.asfortranarray(rng.uniform(-1, 1, (n, m)))
        original = x.copy()
        if scheme == "block":
            block_mgs(x, max(m // 4, 1))
        else:
            assert recursive_orth_svd(x).num_kept == m
        assert gram_defect(x[:, :m]) <= 1e-9
        assert span_residual(x[:, :m], original) <= 1e-8


def test_recursive_leaf_skips_touching_orthonormal_input():
    # a single leaf whose first Gram check passes must not modify anything
    x = random_block(40, 6, seed=12)
    recursive_orth_svd(x)
    before = x.copy()
    out = recursive_orth_svd(x)
    assert out.reduction_count == 1
    assert np.array_equal(x, before)


# ---------------------------------------------------------------------------
# dependence: rearmost replacement, shrinking, total collapse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("use_b", [False, True])
def test_recursive_replaces_duplicate_column(use_b):
    # the slot of the dependent column is refilled from the rear, so the
    # seven kept columns still span all eight originals
    b = spd_tridiag(40) if use_b else None
    x = random_block(40, 8, seed=22)
    x[:, 3] = x[:, 1]
    original = x.copy()
    out = recursive_orth_svd(x, b=b)
    assert out.num_kept == 7
    assert gram_defect(x[:, :7], b) <= 1e-9
    assert span_residual(x[:, :7], original, b) <= 1e-9


@pytest.mark.parametrize("scheme", ["block", "recursive"])
def test_all_dependent_raises(scheme):
    x = np.zeros((20, 4), order="F")
    if scheme == "block":
        # the reference raises on a dependent column instead of refilling
        with pytest.raises(np.linalg.LinAlgError):
            block_mgs(x, 2)
    else:
        with pytest.raises(AllDependent):
            recursive_orth_svd(x)


def test_rank_two_input_keeps_two():
    rng = np.random.default_rng(31)
    base = np.asfortranarray(rng.uniform(-1, 1, (30, 2)))
    mix = rng.uniform(-1, 1, (2, 6))
    x = np.asfortranarray(base @ mix)
    out = recursive_orth_svd(x)
    assert out.num_kept == 2
    assert gram_defect(x[:, :2]) <= 1e-9


# ---------------------------------------------------------------------------
# column ranges (1-based, inclusive) and argument validation
# ---------------------------------------------------------------------------


def test_recursive_range_leaves_outside_columns_alone():
    x = random_block(20, 6, seed=41)
    before = x.copy()
    out = recursive_orth_svd(x, 2, 5)
    assert out.num_kept == 4
    assert np.array_equal(x[:, 0], before[:, 0])
    assert np.array_equal(x[:, 5], before[:, 5])
    assert gram_defect(x[:, 1:5]) <= 1e-9


@pytest.mark.parametrize("bad", [(0, 3), (3, 2), (1, 9), (-1, 1)])
def test_recursive_range_validation(bad):
    x = random_block(10, 6, seed=42)
    with pytest.raises(InvalidRange):
        recursive_orth_svd(x, bad[0], bad[1])


# ---------------------------------------------------------------------------
# orth_against: deflate then orthonormalize
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("use_b", [False, True])
def test_orth_against_basic(use_b):
    b = spd_tridiag(30) if use_b else None
    basis = random_block(30, 4, seed=51)
    recursive_orth_svd(basis, b=b)
    x = random_block(30, 3, seed=52)
    out = orth_against(x, basis, b=b)
    assert out.num_kept == 3
    bx = x if b is None else b.apply(x)
    assert float(np.abs(basis.T @ bx).max()) <= 1e-9
    assert gram_defect(x, b) <= 1e-9


@pytest.mark.parametrize("use_b", [False, True])
def test_orth_against_drops_spanned_column(use_b):
    b = spd_tridiag(30) if use_b else None
    basis = random_block(30, 4, seed=53)
    recursive_orth_svd(basis, b=b)
    x = random_block(30, 3, seed=54)
    x[:, 1] = basis @ np.array([0.2, -0.4, 1.0, 0.3])
    out = orth_against(x, basis, b=b)
    assert out.num_kept == 2
    kept = x[:, :2]
    bk = kept if b is None else b.apply(np.asfortranarray(kept))
    assert float(np.abs(basis.T @ bk).max()) <= 1e-9
    assert gram_defect(kept, b) <= 1e-9


def test_orth_against_empty_basis_is_plain_orth():
    x = random_block(25, 5, seed=55)
    out = orth_against(x, np.zeros((25, 0), order="F"))
    assert out.num_kept == 5
    assert gram_defect(x) <= 1e-9


# ---------------------------------------------------------------------------
# orth_against: the deflation's relative exit and the conditional post pass
# ---------------------------------------------------------------------------


def joint_defect(basis, kept, b=None):
    return gram_defect(np.hstack([basis, kept]), b)


@pytest.mark.parametrize("near", [False, True], ids=["far", "near"])
@pytest.mark.parametrize("use_b", [False, True], ids=["plain", "B"])
def test_orth_against_is_scale_invariant(use_b, near):
    # the early exit compares coefficients with their column's B-norm: a
    # tiny block is deflated as fully as a unit one, also when most of it
    # lies in span(basis) and the first pass cancels
    b = spd_tridiag(60) if use_b else None
    basis = random_block(60, 5, seed=61)
    recursive_orth_svd(basis, b=b)
    x = random_block(60, 4, seed=62)
    if near:
        x = np.asfortranarray(basis @ random_block(5, 4, seed=63) + 1e-6 * x)
    results = []
    for scale in (1.0, 1e-12):
        xs = np.asfortranarray(scale * x)
        out = orth_against(xs, basis, b=b)
        results.append(xs[:, : out.num_kept])
        assert out.num_kept == 4
        assert joint_defect(basis, xs[:, : out.num_kept], b) <= 1e-12
    # the same columns: the two kept blocks span the same space
    cross = bgram(np.hstack([results[0], results[1]]), b)[:4, 4:]
    assert np.allclose(np.linalg.svd(cross, compute_uv=False), 1.0, atol=1e-10)


def spy_orth_against(monkeypatch, basis):
    """Record the reductions each call of ``orth_against`` spends on passes
    over ``basis`` and in the recursive orthonormalization."""
    seen = {"basis": 0, "recursion": 0}
    deflate, orthonormalize = gcgeig.orth._deflate_against, gcgeig.orth._orthonormalize

    def spy_deflate(ctx, against, lo, hi):
        before = ctx.reductions
        share = deflate(ctx, against, lo, hi)
        if against is basis:
            seen["basis"] += ctx.reductions - before
        return share

    def spy_orthonormalize(ctx, lo, hi):
        before = ctx.reductions
        orthonormalize(ctx, lo, hi)
        seen["recursion"] += ctx.reductions - before

    monkeypatch.setattr(gcgeig.orth, "_deflate_against", spy_deflate)
    monkeypatch.setattr(gcgeig.orth, "_orthonormalize", spy_orthonormalize)
    return seen


def test_block_far_from_basis_takes_one_pass(monkeypatch):
    basis = random_block(200, 6, seed=71)
    recursive_orth_svd(basis)
    x = random_block(200, 8, seed=72)
    seen = spy_orth_against(monkeypatch, basis)
    out = orth_against(x, basis)
    assert seen["basis"] == 1
    assert out.reduction_count == 1 + seen["recursion"]
    assert out.num_kept == 8
    assert joint_defect(basis, x) <= 1e-12


def test_block_near_basis_takes_the_repeat_and_the_post_pass(monkeypatch):
    basis = random_block(200, 6, seed=73)
    recursive_orth_svd(basis)
    rng = np.random.default_rng(74)
    x = np.asfortranarray(basis @ rng.uniform(-1, 1, (6, 4)) + 1e-3 * random_block(200, 4, seed=75))
    seen = spy_orth_against(monkeypatch, basis)
    out = orth_against(x, basis)
    # two pre-deflation passes, then one at unit scale after the recursion
    assert seen["basis"] == 3
    assert out.reduction_count > 3 + seen["recursion"]
    assert out.num_kept == 4
    assert joint_defect(basis, x) <= 1e-12


@pytest.mark.parametrize("width", [4, 16], ids=["one-leaf", "split"])
@pytest.mark.parametrize("use_b", [False, True], ids=["plain", "B"])
def test_near_collinear_block_far_from_basis_stays_deflated(use_b, width):
    # x = [u, u + 1e-4 v]: one pass leaves each column rounding-level basis
    # residue, and normalizing the difference scales it up by 1e4, inside a
    # leaf (width 4) or across the recursion's split (width 16).  Without a
    # second pass the joint defect reads 6e-13 to 9e-13; with it, 6e-15.
    b = spd_tridiag(300) if use_b else None
    basis = random_block(300, 30, seed=81)
    recursive_orth_svd(basis, b=b)
    u = random_block(300, width, seed=82)
    x = np.asfortranarray(np.hstack([u, u + 1e-4 * random_block(300, width, seed=83)]))
    out = orth_against(x, basis, b=b)
    assert out.num_kept == 2 * width
    assert joint_defect(basis, x, b) <= 1e-13
