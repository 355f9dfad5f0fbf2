"""Solver contract on random dense problems: a result labelled converged
holds the smallest ``num_eigen`` eigenpairs, and anything else says so."""

import numpy as np
import pytest
import scipy.linalg

from gcgeig import SolverConfig, gcg_solve


def _cases():
    # each (n, generalized, moving) gets one num_eigen drawn at random and
    # one edge value: 1, 2, n - 1 or n in turn
    for n in range(4, 41):
        for generalized in (False, True):
            for moving in (False, True):
                rng = np.random.default_rng([n, generalized, moving])
                edge = (1, 2, n - 1, n)[n % 4]
                for ne in sorted({int(rng.integers(1, n + 1)), edge}):
                    yield n, generalized, moving, ne


@pytest.mark.parametrize("n, generalized, moving, ne", list(_cases()))
def test_converged_means_right(n, generalized, moving, ne):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    a = (m + m.T) / 2.0
    b = None
    if generalized:
        g = rng.standard_normal((n, n))
        b = g @ g.T / n + np.eye(n)
    rep = gcg_solve(a, b, SolverConfig(num_eigen=ne, moving=moving, seed=n, max_gcg_iters=80))
    ref = scipy.linalg.eigh(a, b, eigvals_only=True)
    scale = max(1.0, float(np.abs(ref).max()))
    if rep.status == "converged":
        assert rep.num_converged == ne
        assert rep.eigenvalues.shape == (ne,)
    else:
        # random indefinite generalized problems can stall (n=37, ne=2)
        assert rep.status == "max_iterations"
        assert rep.num_converged < ne
    # every pair counted as converged is right, stalled run or not
    k = rep.num_converged
    assert np.abs(rep.eigenvalues[:k] - ref[:k]).max(initial=0.0) <= 1e-8 * scale
