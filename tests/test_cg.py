"""Block CG: exact solves, per-column stopping, breakdown freezing."""

import numpy as np
import pytest
import scipy.sparse

from gcgeig.cg import block_cg
from gcgeig.errors import InvalidShape
from gcgeig.operators import CsrOperator, DiagonalOperator, ShiftedOperator


def laplacian_op(n):
    d = 2.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    return CsrOperator(scipy.sparse.diags([off, d, off], [-1, 0, 1], format="csr"))


def test_diagonal_exact_solve():
    d = np.arange(2.0, 10.0)
    op = DiagonalOperator(d)
    rng = np.random.default_rng(1)
    rhs = np.asfortranarray(rng.uniform(-1, 1, (8, 3)))
    x, rep = block_cg(op, rhs, max_iters=50, rel_tol=1e-12)
    assert rep.converged.all()
    assert np.abs(x - rhs / d[:, None]).max() <= 1e-10


def test_spd_system_converges_per_column():
    op = laplacian_op(60)
    rng = np.random.default_rng(2)
    rhs = np.asfortranarray(rng.uniform(-1, 1, (60, 4)))
    x, rep = block_cg(op, rhs, max_iters=200, rel_tol=1e-10)
    assert rep.converged.all()
    res = rhs - op.apply(np.asfortranarray(x))
    rel = np.sqrt((res * res).sum(0) / (rhs * rhs).sum(0))
    assert rel.max() <= 1e-9


def test_iteration_cap_respected():
    op = laplacian_op(100)
    rhs = np.zeros((100, 1), order="F")
    rhs[0, 0] = 1.0
    x, rep = block_cg(op, rhs, max_iters=3, rel_tol=1e-14)
    assert rep.iterations == 3
    assert not rep.converged.any()


def test_zero_rhs_column_finishes_immediately():
    op = DiagonalOperator(np.array([1.0, 2.0, 3.0]))
    rhs = np.zeros((3, 2), order="F")
    rhs[:, 1] = [1.0, 0.0, 0.0]
    x, rep = block_cg(op, rhs, max_iters=10, rel_tol=1e-12)
    assert rep.converged.all()
    assert np.all(x[:, 0] == 0.0)
    assert rep.relative_residuals[0] == 0.0


def test_single_sweep_matches_hand_computed_step():
    op = DiagonalOperator(np.array([3.0, 5.0, 9.0]))
    rhs = np.asfortranarray(np.array([[1.0], [2.0], [-1.0]]))
    x, rep = block_cg(op, rhs, max_iters=1, rel_tol=1e-300)
    alpha = float(np.vdot(rhs, rhs)) / float(np.vdot(rhs, op.apply(rhs)))
    expect = alpha * rhs
    assert rep.iterations == 1
    assert np.abs(x - expect).max() <= 1e-15


def test_indefinite_direction_is_frozen():
    op = DiagonalOperator(np.array([1.0, -1.0]))
    rhs = np.zeros((2, 2), order="F")
    rhs[0, 0] = 1.0
    rhs[1, 1] = 1.0
    x, rep = block_cg(op, rhs, max_iters=10, rel_tol=1e-12)
    assert rep.converged[0]
    assert rep.frozen[1]
    assert not rep.converged[1]
    assert np.isfinite(x).all()


def test_shifted_combination_system():
    n = 40
    a = laplacian_op(n)
    b = DiagonalOperator(np.full(n, 0.5))
    theta = -1.0  # A + 0.5*ones: strictly positive definite
    op = ShiftedOperator(a, b, theta)
    rng = np.random.default_rng(3)
    rhs = np.asfortranarray(rng.uniform(-1, 1, (n, 2)))
    x, rep = block_cg(op, rhs, max_iters=300, rel_tol=1e-11)
    assert rep.converged.all()
    res = rhs - op.apply(np.asfortranarray(x))
    assert np.sqrt((res * res).sum(0)).max() <= 1e-9 * np.sqrt((rhs * rhs).sum(0)).max()


def test_shape_validation():
    op = DiagonalOperator(np.ones(4))
    with pytest.raises(InvalidShape):
        block_cg(op, np.zeros((5, 1), order="F"))
    # the parameters after rhs are keyword-only: a positional start raises
    # instead of binding to max_iters
    with pytest.raises(TypeError):
        block_cg(op, np.zeros((4, 2), order="F"), np.zeros((4, 2), order="F"))


def _overshoot_case():
    """An indefinite diagonal system with two columns.  The first drops its
    residual from 1.67 to 0.955 in one sweep, jumps to 55.6 on a tiny
    positive curvature in the next, and freezes in the third.  The second
    stays off the negative entries and converges."""
    rng = np.random.default_rng(52)
    d = rng.uniform(0.5, 10.0, 6)
    d[:2] *= -1.0
    rhs = np.zeros((6, 2), order="F")
    rhs[:, 0] = rng.standard_normal(6)
    rhs[2:, 1] = 1.0
    return DiagonalOperator(d), rhs


def test_frozen_column_returns_its_smallest_residual_iterate():
    op, rhs = _overshoot_case()
    col = np.asfortranarray(rhs[:, :1])
    x_off, off = block_cg(op, col, max_iters=30, rel_tol=1e-300)
    assert off.frozen[0] and off.iterations == 3
    iterates = [block_cg(op, col, max_iters=s, rel_tol=1e-300)[0] for s in range(3)]
    res = [np.linalg.norm(col - op.apply(x)) for x in iterates + [x_off]]
    assert int(np.argmin(res)) == 1 and res[-1] > 50.0 * res[1]

    store = np.full((6, 1), np.nan, order="F")
    x_on, on = block_cg(op, col, max_iters=30, rel_tol=1e-300, best=store)
    assert on.frozen[0] and on.iterations == 3
    np.testing.assert_array_equal(x_on, iterates[1])


def test_restored_column_reports_its_residual_and_leaves_the_others():
    op, rhs = _overshoot_case()
    x_off, off = block_cg(op, rhs, max_iters=30, rel_tol=1e-12)
    x_on, on = block_cg(op, rhs, max_iters=30, rel_tol=1e-12, best=np.empty_like(rhs))
    assert on.frozen[0] and on.converged[1]
    np.testing.assert_array_equal(x_on[:, 1], x_off[:, 1])
    assert on.relative_residuals[1] == off.relative_residuals[1]
    true = np.linalg.norm(rhs[:, 0] - op.apply(x_on)[:, 0]) / np.linalg.norm(rhs[:, 0])
    assert abs(on.relative_residuals[0] - true) <= 1e-12
    assert on.relative_residuals[0] < off.relative_residuals[0] / 50.0


def test_zero_start_frozen_at_the_first_sweep_returns_z0():
    """From a zero start, a column that freezes at its first sweep returns
    its first preconditioned residual, not the zero start; the report keeps
    the zero start's residual.  A column with a zero right-hand side stays
    zero."""
    op = DiagonalOperator(np.array([-1.0, 2.0, 4.0]))
    rhs = np.zeros((3, 3), order="F")
    rhs[:, 0] = [1.0, 0.0, 0.0]      # curvature -1 at the first sweep
    rhs[:, 1] = [0.0, 1.0, 1.0]      # positive definite part: converges
    inv = np.array([1.0, 0.5, 0.25])[:, None]
    x, rep = block_cg(op, rhs, max_iters=10, rel_tol=1e-12)
    assert rep.frozen.tolist() == [True, False, False]
    np.testing.assert_array_equal(x[:, 0], rhs[:, 0])
    assert rep.relative_residuals[0] == 1.0
    assert not x[:, 2].any()
    x, rep = block_cg(
        op, rhs, max_iters=10, rel_tol=1e-12,
        precond=lambda r, out: np.multiply(r, inv, out=out),
    )
    assert rep.frozen[0]
    np.testing.assert_array_equal(x[:, 0], rhs[:, 0] * inv[:, 0])


def test_zero_start_kept_as_best_returns_z0():
    """A column whose residual rises from 2.43 to 67.4 in its first sweep
    and freezes in the second: its best iterate is the zero start, so with
    a ``best`` store it returns its first residual (plain CG's z0), and
    without one the overshoot."""
    rng = np.random.default_rng(6)
    d = rng.uniform(0.5, 10.0, 6)
    d[:2] *= -1.0
    op = DiagonalOperator(d)
    rhs = np.asfortranarray(rng.standard_normal((6, 1)))
    x_off, off = block_cg(op, rhs, max_iters=30, rel_tol=1e-300)
    assert off.frozen[0] and off.iterations == 2
    assert np.linalg.norm(rhs - op.apply(x_off)) > 20.0 * np.linalg.norm(rhs)
    x_on, on = block_cg(op, rhs, max_iters=30, rel_tol=1e-300, best=np.empty_like(rhs))
    assert on.frozen[0] and on.iterations == 2
    np.testing.assert_array_equal(x_on, rhs)
    assert on.relative_residuals[0] == 1.0


class _Float32Recorder(DiagonalOperator):
    """A diagonal operator that records the dtype of every block and
    output it is handed."""

    def __init__(self, d):
        super().__init__(d)
        self.seen = []

    def apply(self, x, out=None):
        self.seen.append((x.dtype, None if out is None else out.dtype))
        return super().apply(x, out=out)


@pytest.mark.parametrize("precond", [False, True])
def test_float32_rhs_solves_in_float32(precond):
    """A float32 ``rhs`` gives a float32 solution, and the operator, the
    preconditioner and the ``best`` store see float32 blocks only; the
    solve still converges to float32 accuracy."""
    n = 50
    d = np.linspace(1.0, 10.0, n)
    op = _Float32Recorder(d)
    rhs = np.asfortranarray(np.random.default_rng(4).standard_normal((n, 3)), dtype=np.float32)
    handed = []

    def scale(r, out):
        handed.append((r.dtype, out.dtype))
        np.multiply(r, (1.0 / d).astype(np.float32)[:, None], out=out)

    best = np.empty_like(rhs)
    x, rep = block_cg(
        op, rhs, max_iters=60, rel_tol=1e-5, precond=scale if precond else None, best=best
    )
    assert x.dtype == np.float32 and x.flags.f_contiguous
    assert op.seen and all(s == (np.float32, np.float32) for s in op.seen)
    assert all(h == (np.float32, np.float32) for h in handed) and bool(handed) == precond
    assert rep.converged.all()
    exact = rhs.astype(np.float64) / d[:, None]
    assert np.abs(x - exact).max() <= 1e-4 * np.abs(exact).max()


def test_curvature_floor_freezes_a_rounding_level_curvature():
    """``curvature_floor`` freezes a column whose curvature ``p' op p`` is at
    or below the floor times ``p'p``: here the operator's smallest entry,
    1e-7 of its largest, holds the whole right-hand side."""
    op = DiagonalOperator(np.array([1e-7, 1.0, 1.0]))
    rhs = np.zeros((3, 1), order="F")
    rhs[0, 0] = 1.0
    _, free = block_cg(op, rhs, max_iters=5, rel_tol=1e-12)
    assert free.converged[0]
    x, rep = block_cg(op, rhs, max_iters=5, rel_tol=1e-12, curvature_floor=2e-7)
    assert rep.frozen[0] and rep.iterations == 1
    np.testing.assert_array_equal(x, rhs)
