"""Block CG on a compacted active prefix against the fancy-index reference.

``reference_block_cg`` is the earlier implementation, which gathered the
active columns with fancy indexing on every sweep.  The compacted sweep does
the same arithmetic on the same data, so with ``x0`` given and no
preconditioner it must agree bit for bit.  Elsewhere the reference keeps its
residual in C order, where einsum rounds differently, so agreement is to
1e-13 relative with the same per-column outcome.  That covers the solver's
own path, a zero start with the scaling by ``1 / diag``; where the solver
runs that path in float32, the float32 sweeps are held to the float64
reference at a float32-scale bound.
"""

import numpy as np
import pytest
import scipy.sparse

from gcgeig import generate_builtin
from gcgeig.cg import CgReport, block_cg
from gcgeig.operators import CsrOperator, DenseOperator, DiagonalOperator, ShiftedOperator


def _col_dots(x, y):
    return np.einsum("ij,ij->j", x, y)


def reference_block_cg(op, rhs, x0=None, max_iters=30, rel_tol=0.01, precond=None,
                       keep_best=False):
    rhs = np.asfortranarray(rhs, dtype=np.float64)
    n, k = rhs.shape
    if x0 is None:
        x = np.zeros((n, k), order="F")
        r = rhs.copy()
    else:
        x = np.array(x0, dtype=np.float64, order="F")
        r = rhs - op.apply(x)

    rn0 = np.sqrt(_col_dots(r, r))
    target = rel_tol * rn0
    converged = rn0 <= target
    frozen = np.zeros(k, dtype=bool)
    rn = rn0.copy()
    # keep_best: each column's smallest residual so far and its iterate
    rn_best, x_best = rn0.copy(), x.copy()

    z = precond(r) if precond is not None else r.copy()
    p = z.copy()
    rz = _col_dots(r, z)
    sweeps = 0

    for _ in range(max_iters):
        idx = np.flatnonzero(~converged & ~frozen)
        if idx.size == 0:
            break
        sweeps += 1
        pb = np.asfortranarray(p[:, idx])
        qb = op.apply(pb)
        den = _col_dots(pb, qb)
        bad = den <= 0.0
        if np.any(bad):
            if keep_best:
                back = idx[bad & (rn[idx] > rn_best[idx])]
                x[:, back] = x_best[:, back]
                rn[back] = rn_best[back]
            frozen[idx[bad]] = True
            idx = idx[~bad]
            if idx.size == 0:
                continue
            pb = pb[:, ~bad]
            qb = qb[:, ~bad]
            den = den[~bad]
        alpha = rz[idx] / den
        x[:, idx] += pb * alpha
        r[:, idx] -= qb * alpha
        rn[idx] = np.sqrt(_col_dots(r[:, idx], r[:, idx]))
        if keep_best:
            new_best = idx[rn[idx] <= rn_best[idx]]
            rn_best[new_best] = rn[new_best]
            x_best[:, new_best] = x[:, new_best]
        done = rn[idx] <= target[idx]
        converged[idx[done]] = True
        idx = idx[~done]
        if idx.size == 0:
            continue
        zb = precond(r[:, idx]) if precond is not None else r[:, idx]
        rz_new = _col_dots(r[:, idx], zb)
        beta = rz_new / rz[idx]
        p[:, idx] = zb + p[:, idx] * beta
        rz[idx] = rz_new

    safe = np.where(rn0 > 0.0, rn0, 1.0)
    return x, CgReport(sweeps, converged, frozen, rn / safe)


def _laplacian(n):
    off = -np.ones(n - 1)
    return scipy.sparse.diags([off, 2.0 * np.ones(n), off], [-1, 0, 1], format="csr")


def _operator(kind, n, rng):
    """The operator of a case and the diagonal of the matrix it holds."""
    if kind == "csr":
        return CsrOperator(_laplacian(n)), np.full(n, 2.0)
    if kind == "shifted-csr":
        b = rng.uniform(0.5, 1.5, n)
        op = ShiftedOperator(
            CsrOperator(_laplacian(n)), CsrOperator(scipy.sparse.diags(b, format="csr")), 0.01
        )
        return op, 2.0 - 0.01 * b
    if kind == "indefinite-diag":
        # a few negative entries freeze the columns that see them
        d = rng.uniform(0.5, 20.0, n)
        d[rng.choice(n, 3, replace=False)] *= -1.0
        return DiagonalOperator(d), d
    if kind == "dense":
        m = rng.standard_normal((n, n))
        m = m @ m.T / n + np.diag(rng.uniform(0.1, 5.0, n))
        return DenseOperator(m), np.diag(m).copy()
    raise ValueError(kind)


def _case(seed):
    """A seeded problem: widths 1-6, columns with spread-out stopping sweeps,
    some zero right-hand sides, and caps from 1 to 30 sweeps.  The last
    entry is the diagonal of the operator's matrix."""
    rng = np.random.default_rng(seed)
    kinds = ("csr", "shifted-csr", "indefinite-diag", "dense")
    kind = kinds[seed % len(kinds)]
    n = int(rng.integers(20, 60))
    k = int(rng.integers(1, 7))
    op, diag = _operator(kind, n, rng)
    rhs = rng.standard_normal((n, k))
    # smooth columns converge in a few sweeps, rough ones take many
    rhs *= np.linspace(1.0, 0.05, n)[:, None] ** rng.integers(0, 4, k)
    if k > 1 and rng.random() < 0.3:
        rhs[:, rng.integers(k)] = 0.0
    x0 = rng.standard_normal((n, k)) * 0.1
    if rng.random() < 0.2:
        x0[:, rng.integers(k)] = 0.0
    max_iters = int(rng.integers(1, 31))
    rel_tol = float(10.0 ** rng.uniform(-8, -1))
    return op, np.asfortranarray(rhs), np.asfortranarray(x0), max_iters, rel_tol, diag


def _assert_same_outcome(rep, ref):
    assert rep.iterations == ref.iterations
    np.testing.assert_array_equal(rep.converged, ref.converged)
    np.testing.assert_array_equal(rep.frozen, ref.frozen)


@pytest.mark.parametrize("seed", range(120))
def test_bit_identical_on_the_solver_path(seed):
    op, rhs, x0, max_iters, rel_tol, _ = _case(seed)
    x, rep = block_cg(op, rhs, x0=x0, max_iters=max_iters, rel_tol=rel_tol)
    x_ref, ref = reference_block_cg(op, rhs, x0=x0, max_iters=max_iters, rel_tol=rel_tol)
    _assert_same_outcome(rep, ref)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(rep.relative_residuals, ref.relative_residuals)
    assert x.flags.f_contiguous


@pytest.mark.parametrize("seed", range(120))
def test_frozen_columns_keep_their_best_iterate(seed):
    """With a ``best`` store, a frozen column returns the iterate with its
    smallest residual, bit for bit with a reference that copies every
    column's iterate whenever it reaches a new smallest residual."""
    op, rhs, x0, max_iters, rel_tol, _ = _case(seed)
    kw = dict(x0=x0, max_iters=max_iters, rel_tol=rel_tol)
    x, rep = block_cg(op, rhs, best=np.empty_like(rhs), **kw)
    x_ref, ref = reference_block_cg(op, rhs, keep_best=True, **kw)
    _assert_same_outcome(rep, ref)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(rep.relative_residuals, ref.relative_residuals)
    assert x.flags.f_contiguous


def test_battery_freezes_columns_past_their_best_iterate():
    """Enough seeded cases freeze a column after its residual rose, so the
    test above compares restored iterates and not only untouched ones."""
    restored = 0
    for seed in range(120):
        op, rhs, x0, max_iters, rel_tol, _ = _case(seed)
        kw = dict(x0=x0, max_iters=max_iters, rel_tol=rel_tol)
        x_off, _ = block_cg(op, rhs, **kw)
        x_on, rep = block_cg(op, rhs, best=np.empty_like(rhs), **kw)
        restored += bool((rep.frozen & (x_on != x_off).any(axis=0)).any())
    assert restored >= 20


def _jacobi(diag, dtype=np.float64):
    """Scaling by 1/|diag|, held in ``dtype``, in block_cg's form ``f(r,
    out)`` and, without ``out``, in the reference's ``f(r)``."""
    inv = (1.0 / np.abs(diag)).astype(dtype)
    return lambda r, out=None: np.multiply(r, inv[:, None], out=out)


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("start", ["zero", "zero-precond", "x0-precond"])
def test_close_without_x0_or_with_preconditioner(seed, start):
    """``zero-precond`` is the solver's path: a zero start and the scaling.
    There the reference's z is C-ordered at every sweep, not only at the
    first, and on the indefinite shifted cases, whose residuals grow up to
    194-fold, the rounding gap grows with them: the largest measured over
    the 60 seeds is 1.0e-12 relative in x and in a residual, and 6.3e-15 on
    a residual at the rounding floor.  So that path is held to 1e-11 and
    1e-14, the others to 1e-13 and 1e-15."""
    op, rhs, x0, max_iters, rel_tol, diag = _case(seed)
    kw = dict(max_iters=max_iters, rel_tol=rel_tol)
    if start != "zero":
        kw.update(precond=_jacobi(diag))
    if start == "x0-precond":
        kw.update(x0=x0)
    rtol, atol = (1e-11, 1e-14) if start == "zero-precond" else (1e-13, 1e-15)
    x, rep = block_cg(op, rhs, **kw)
    x_ref, ref = reference_block_cg(op, rhs, **kw)
    _assert_same_outcome(rep, ref)
    scale = max(float(np.abs(x_ref).max()), 1e-300)
    assert float(np.abs(x - x_ref).max()) <= rtol * scale
    np.testing.assert_allclose(rep.relative_residuals, ref.relative_residuals, rtol=rtol, atol=atol)
    assert x.flags.f_contiguous


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shift", ["zero", "floor"])
def test_float32_sweeps_against_the_float64_reference(seed, shift):
    """The solver's float32 path on clustered-random n=200, which its rule
    admits (``kappa_G = hi / lo`` about 5): ``A - theta*I`` at theta 0 or at
    the Gershgorin floor, assembled in float32, a zero start, a float32
    right-hand side, scaling by a float32 1/diag, the curvature floor of
    float32 and cg_rel_tol 0.01.  The float64 reference, on the same
    combination assembled in float64, takes the same sweeps and stops
    every column the same way; the solution and the relative residuals
    agree within ``4 * kappa_G * 2**-24`` relative (the largest measured is
    0.6 of ``kappa_G * 2**-24``)."""
    a, _ = generate_builtin("clustered-random", 200, seed=seed)
    lo, hi = a.gershgorin()
    theta = lo if shift == "floor" else 0.0
    op = ShiftedOperator(a, None, theta, dtype=np.float32)
    op64 = ShiftedOperator(a, None, theta, dtype=np.float64)
    rhs = np.asfortranarray(np.random.default_rng(seed).standard_normal((200, 6)))
    diag = a.tocsr().diagonal()
    x, rep = block_cg(
        op, rhs.astype(np.float32), rel_tol=0.01, precond=_jacobi(diag, np.float32),
        curvature_floor=2.0**-24 * (hi + theta),
    )
    x_ref, ref = reference_block_cg(op64, rhs, rel_tol=0.01, precond=_jacobi(diag))
    assert x.dtype == np.float32 and ref.converged.any()
    _assert_same_outcome(rep, ref)
    bound = 4.0 * (hi / lo) * 2.0**-24
    assert float(np.abs(x - x_ref).max()) <= bound * float(np.abs(x_ref).max())
    np.testing.assert_allclose(rep.relative_residuals, ref.relative_residuals, rtol=0, atol=bound)


def _stop_sweep(op, rhs, x0, max_iters, rel_tol, j):
    """Sweep at which column j stops when solved alone, None if it runs out."""
    _, rep = block_cg(op, rhs[:, [j]], x0=x0[:, [j]], max_iters=max_iters, rel_tol=rel_tol)
    return rep.iterations if rep.converged[0] or rep.frozen[0] else None


def test_battery_exercises_every_path():
    """The seeded cases freeze columns, stop columns at different sweeps,
    run into the cap, and carry zero right-hand sides."""
    frozen = staggered = capped = zero = 0
    for seed in range(120):
        op, rhs, x0, max_iters, rel_tol, _ = _case(seed)
        _, rep = block_cg(op, rhs, x0=x0, max_iters=max_iters, rel_tol=rel_tol)
        stops = {_stop_sweep(op, rhs, x0, max_iters, rel_tol, j) for j in range(rhs.shape[1])}
        frozen += bool(rep.frozen.any())
        staggered += len(stops - {None}) >= 2
        capped += rep.iterations == max_iters
        zero += bool((np.abs(rhs).max(axis=0) == 0.0).any())
    assert min(frozen, staggered, capped, zero) >= 20
