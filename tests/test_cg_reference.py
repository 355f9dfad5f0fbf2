"""Block CG on a compacted active prefix against the fancy-index reference.

``reference_block_cg`` is the earlier implementation, which gathered the
active columns with fancy indexing on every sweep.  Both start from zero,
keep every block in F order and apply ``block_cg``'s two zero-start rules:
a column frozen at the first sweep returns its first preconditioned
residual ``z0``, and ``z0`` stands in for the zero start in the ``best``
store.  The compacted sweep does the same arithmetic on the same data, so
on the solver's path, plain or scaled by ``1 / diag``, with or without a
``best`` store, the two agree bit for bit.  Where the solver runs that
path in float32, the float32 sweeps are held to the float64 reference at
a float32-scale bound.
"""

import numpy as np
import pytest
import scipy.sparse

from gcgeig import generate_builtin
from gcgeig.cg import CgReport, block_cg
from gcgeig.operators import CsrOperator, DenseOperator, DiagonalOperator, ShiftedOperator


def _col_dots(x, y):
    return np.einsum("ij,ij->j", x, y)


def reference_block_cg(op, rhs, max_iters=30, rel_tol=0.01, precond=None, keep_best=False):
    rhs = np.asfortranarray(rhs, dtype=np.float64)
    n, k = rhs.shape
    x = np.zeros((n, k), order="F")
    r = rhs.copy(order="F")

    rn0 = np.sqrt(_col_dots(r, r))
    target = rel_tol * rn0
    converged = rn0 <= target
    frozen = np.zeros(k, dtype=bool)
    rn = rn0.copy()
    z = precond(r) if precond is not None else r.copy(order="F")
    p = z.copy(order="F")
    rz = _col_dots(r, z)
    # keep_best: each column's smallest residual so far and its iterate, with
    # z0 standing in for the zero start
    rn_best, x_best = rn0.copy(), z.copy(order="F")
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
            if sweeps == 1:
                # a column frozen at the first sweep returns z0
                x[:, idx[bad]] = pb[:, bad]
            frozen[idx[bad]] = True
            idx = idx[~bad]
            if idx.size == 0:
                continue
            pb = np.asfortranarray(pb[:, ~bad])
            qb = np.asfortranarray(qb[:, ~bad])
            den = den[~bad]
        alpha = rz[idx] / den
        x[:, idx] += pb * alpha
        rb = np.asfortranarray(r[:, idx] - qb * alpha)
        r[:, idx] = rb
        rn[idx] = np.sqrt(_col_dots(rb, rb))
        if keep_best:
            new_best = idx[rn[idx] <= rn_best[idx]]
            rn_best[new_best] = rn[new_best]
            x_best[:, new_best] = x[:, new_best]
        done = rn[idx] <= target[idx]
        converged[idx[done]] = True
        idx = idx[~done]
        if idx.size == 0:
            continue
        rb = np.asfortranarray(r[:, idx])
        zb = precond(rb) if precond is not None else rb
        rz_new = _col_dots(rb, zb)
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


def _jacobi(diag, dtype=np.float64):
    """Scaling by 1/|diag|, held in ``dtype``, in block_cg's form ``f(r,
    out)`` and, without ``out``, in the reference's ``f(r)``."""
    inv = (1.0 / np.abs(diag)).astype(dtype)
    return lambda r, out=None: np.multiply(r, inv[:, None], out=out)


def _assert_matches_reference(op, rhs, keep_best=False, **kw):
    best = np.empty_like(rhs) if keep_best else None
    x, rep = block_cg(op, rhs, best=best, **kw)
    x_ref, ref = reference_block_cg(op, rhs, keep_best=keep_best, **kw)
    assert rep.iterations == ref.iterations
    np.testing.assert_array_equal(rep.converged, ref.converged)
    np.testing.assert_array_equal(rep.frozen, ref.frozen)
    np.testing.assert_array_equal(x, x_ref)
    np.testing.assert_array_equal(rep.relative_residuals, ref.relative_residuals)
    assert x.flags.f_contiguous


@pytest.mark.parametrize("seed", range(120))
def test_bit_identical_on_the_solver_path(seed):
    """The damped step's CG once a pair locks: a zero start, the scaling by
    ``1 / diag`` and a ``best`` store."""
    op, rhs, _, max_iters, rel_tol, diag = _case(seed)
    _assert_matches_reference(
        op, rhs, keep_best=True, max_iters=max_iters, rel_tol=rel_tol, precond=_jacobi(diag)
    )


@pytest.mark.parametrize("seed", range(120))
def test_frozen_columns_keep_their_best_iterate(seed):
    """With a ``best`` store and plain CG, a frozen column returns the iterate
    with its smallest residual, bit for bit with a reference that copies
    every column's iterate whenever it reaches a new smallest residual."""
    op, rhs, _, max_iters, rel_tol, _ = _case(seed)
    _assert_matches_reference(op, rhs, keep_best=True, max_iters=max_iters, rel_tol=rel_tol)


def test_battery_freezes_columns_past_their_best_iterate():
    """Enough seeded cases freeze a column after its residual rose, so the
    tests above compare restored iterates and not only untouched ones."""
    restored = 0
    for seed in range(120):
        op, rhs, _, max_iters, rel_tol, _ = _case(seed)
        kw = dict(max_iters=max_iters, rel_tol=rel_tol)
        x_off, _ = block_cg(op, rhs, **kw)
        x_on, rep = block_cg(op, rhs, best=np.empty_like(rhs), **kw)
        restored += bool((rep.frozen & (x_on != x_off).any(axis=0)).any())
    assert restored >= 20


@pytest.mark.parametrize("seed", range(60))
@pytest.mark.parametrize("start", ["zero", "zero-precond", "x0-precond"])
def test_close_without_x0_or_with_preconditioner(seed, start):
    """Equal, not only close, without a ``best`` store, on cases ``seed``
    and ``seed + 60``: ``zero`` is plain CG, ``zero-precond`` scales by
    ``1 / diag``, and ``x0-precond`` takes the case's start ``x0`` as the
    damped step does, scaled, solving for the correction against the
    residual ``rhs - op @ x0``."""
    for case in (seed, seed + 60):
        op, rhs, x0, max_iters, rel_tol, diag = _case(case)
        kw = dict(max_iters=max_iters, rel_tol=rel_tol)
        if start != "zero":
            kw.update(precond=_jacobi(diag))
        if start == "x0-precond":
            rhs = rhs - op.apply(x0)
        _assert_matches_reference(op, rhs, **kw)


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
    assert rep.iterations == ref.iterations
    np.testing.assert_array_equal(rep.converged, ref.converged)
    np.testing.assert_array_equal(rep.frozen, ref.frozen)
    bound = 4.0 * (hi / lo) * 2.0**-24
    assert float(np.abs(x - x_ref).max()) <= bound * float(np.abs(x_ref).max())
    np.testing.assert_allclose(rep.relative_residuals, ref.relative_residuals, rtol=0, atol=bound)


def _stop_sweep(op, rhs, max_iters, rel_tol, j):
    """Sweep at which column j stops when solved alone, None if it runs out."""
    _, rep = block_cg(op, rhs[:, [j]], max_iters=max_iters, rel_tol=rel_tol)
    return rep.iterations if rep.converged[0] or rep.frozen[0] else None


def test_battery_exercises_every_path():
    """The seeded cases freeze columns, stop columns at different sweeps,
    run into the cap, and carry zero right-hand sides."""
    frozen = staggered = capped = zero = 0
    for seed in range(120):
        op, rhs, _, max_iters, rel_tol, _ = _case(seed)
        _, rep = block_cg(op, rhs, max_iters=max_iters, rel_tol=rel_tol)
        stops = {_stop_sweep(op, rhs, max_iters, rel_tol, j) for j in range(rhs.shape[1])}
        frozen += bool(rep.frozen.any())
        staggered += len(stops - {None}) >= 2
        capped += rep.iterations == max_iters
        zero += bool((np.abs(rhs).max(axis=0) == 0.0).any())
    assert min(frozen, staggered, capped, zero) >= 20
