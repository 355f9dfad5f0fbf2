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
