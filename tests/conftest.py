import contextlib
import os

# One BLAS thread, as the benchmark runs: on a 2-core machine the acceptance
# tests ran 3x faster than at two.  The BLAS reads these only when numpy is
# first imported, which happens below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.sparse  # noqa: E402

import gcgeig.solver  # noqa: E402
from gcgeig.multivec import mv_inner_prod  # noqa: E402
from gcgeig.operators import as_operator  # noqa: E402


def tridiag(n, lo, mid, hi):
    """The CSR matrix tridiag(lo, mid, hi) of size n."""
    return scipy.sparse.diags([lo, mid, hi], [-1, 0, 1], shape=(n, n), format="csr")


def neumann_tridiag(n):
    """tridiag(-1, 2, -1) with 1 in both corners: singular, constant kernel."""
    m = tridiag(n, -1.0, 2.0, -1.0).tolil()
    m[0, 0] = m[n - 1, n - 1] = 1.0
    return m.tocsr()


def block_mgs(x, width, b=None):
    """The paper's block modified Gram-Schmidt, the reference for its
    reduction count m + m/b - 1.  B-orthonormalizes ``x`` in place, in
    blocks of ``width`` columns, and returns the global reductions taken.

    Each column costs one fused reduction: its squared B-norm with its
    projections on the rest of its block.  Each block boundary costs one
    deflation of the later columns against the finished block, with their
    squared norms fused in; it repeats while a pass removes more than half
    of some column's squared norm ("twice is enough").  A dependent column
    raises ``LinAlgError`` instead of being refilled from the rear.
    """
    bdot = (lambda y: y) if b is None else (lambda y: b.apply(np.asfortranarray(y)))
    reductions, scale = 0, 0.0
    for start in range(0, x.shape[1], width):
        stop = min(start + width, x.shape[1])
        for j in range(start, stop):
            bcol = bdot(x[:, j : j + 1])
            nrm2 = float(x[:, j] @ bcol[:, 0])
            fwd = x[:, j + 1 : stop].T @ bcol
            reductions += 1
            scale = max(scale, nrm2)
            if nrm2 <= 1e-10 * scale:
                raise np.linalg.LinAlgError(f"column {j} is dependent")
            x[:, j] /= np.sqrt(nrm2)
            x[:, j + 1 : stop] -= np.outer(x[:, j], fwd / np.sqrt(nrm2))
        block, rest = x[:, start:stop], x[:, stop:]
        for _ in range(3):
            if rest.shape[1] == 0:
                break
            brest = bdot(rest)
            r = block.T @ brest
            norms = np.einsum("ij,ij->j", rest, brest)
            reductions += 1
            rest -= block @ r
            if not np.any(np.einsum("ij,ij->j", r, r) > 0.5 * norms):
                break
    return reductions


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@contextlib.contextmanager
def measure_projections(b=None):
    """Measure a solve from outside by wrapping its projection phase.

    Before each projection, ``orthogonality`` gets max|V'BV - I| over the
    live basis (the stored pairs left out), as the previous iteration left
    it.  Once X holds Ritz vectors, ``projection`` gets the largest gap
    between the structured projected matrix and the symmetrized
    ``basis' A basis``.  Yields the two lists, which fill as the solve runs.
    """
    b_op = None if b is None else as_operator(b)
    orthogonality, projection = [], []
    project = gcgeig.solver._project

    def measured(win, a, basis):
        span = win.v[:, win.stored : win.sx + win.np_ + win.nw]
        gram = mv_inner_prod(span, span if b_op is None else b_op.apply(span))
        orthogonality.append(float(np.abs(gram - np.eye(gram.shape[0])).max()))
        abar = project(win, a, basis)
        if win.ritz:
            naive = mv_inner_prod(basis, a.apply(basis))
            projection.append(float(np.abs(abar - (naive + naive.T) / 2.0).max()))
        return abar

    gcgeig.solver._project = measured
    try:
        yield orthogonality, projection
    finally:
        gcgeig.solver._project = project
