"""Dense symmetric eigensolvers and small dense helpers.

These routines handle the projected (small, dense) problems.  Conventions:

* matrices are 2-D float64 ndarrays; results use Fortran (column) order so
  column slices alias storage,
* eigenvalues are returned ascending,
* eigenvector signs are fixed so the entry of largest magnitude is positive
  (first such index on ties), which keeps runs reproducible,
* index ranges are 1-based and inclusive, matching the usual eigensolver
  (il, iu) convention.

The projected eigenproblems go to LAPACK's divide-and-conquer driver
(``?syevd``), which computes the whole spectrum; ``sym_eig_range`` returns
the wanted slice of it.  Asking ``?syevr`` for a subset instead takes its
bisection and inverse-iteration path, which costs up to 3.5 times as much
for the slices the solver asks for.  One BLAS thread on a 2-core machine,
best of 7:

    ==============  ============  ===========  ==========
    projected size  pairs wanted  subset evr   full evd
    ==============  ============  ===========  ==========
    400             320           80.0 ms      22.9 ms
    200             120           14.7 ms       4.5 ms
    120              40            3.3 ms       1.9 ms
     20              10            0.14 ms      0.10 ms
    ==============  ============  ===========  ==========

The whole spectrum by ``?syevr`` (27.1 ms at 400) loses at every size, so
there is no size threshold.  ``gram_svd`` keeps scipy's default driver: its
matrices are at most a block wide, where the driver makes no difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidMatrix, InvalidRange, InvalidShape, NoConvergence

__all__ = ["SpectralDecomposition", "sym_eig_full", "sym_eig_range", "gram_svd"]


@dataclass
class SpectralDecomposition:
    """Eigenvalues (ascending) and the matching eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _check_sym(m, name="matrix"):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidShape(f"{name} must be square 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidMatrix(f"{name} contains non-finite entries")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if float(np.abs(m - m.T).max(initial=0.0)) > 1e-12 * scale:
        raise InvalidMatrix(f"{name} is not symmetric")
    return m


def _fix_signs(vectors):
    """Flip each column so its largest-magnitude entry is positive."""
    if vectors.size == 0:
        return vectors
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    vectors *= signs
    return vectors


def _eigh(m, cols=slice(None), **kwargs):
    """Eigenpairs of ``m``, keeping the columns ``cols`` of the spectrum.  A
    slice of consecutive columns of the F-order vectors is F-contiguous."""
    try:
        vals, vecs = scipy.linalg.eigh(m, **kwargs)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NoConvergence(str(exc)) from exc
    return SpectralDecomposition(vals[cols], _fix_signs(np.asfortranarray(vecs)[:, cols]))


def sym_eig_full(m):
    """All eigenpairs of a symmetric matrix, ascending."""
    return _eigh(_check_sym(m), driver="evd")


def sym_eig_range(m, lo, hi):
    """Eigenpairs lo..hi (1-based, inclusive) of a symmetric matrix."""
    m = _check_sym(m)
    n = m.shape[0]
    if not (1 <= lo <= hi <= n):
        raise InvalidRange(f"range {lo}..{hi} invalid for dimension {n}")
    return _eigh(m, slice(lo - 1, hi), driver="evd")


def gram_svd(m):
    """Spectral factorization of a symmetric PSD (Gram) matrix.

    Returns ``SpectralDecomposition`` with values ascending.  Near-zero or
    slightly negative values (roundoff from a rank-deficient Gram matrix)
    are reported as-is; deciding what counts as dependent is the caller's
    business.
    """
    return _eigh(_check_sym(m, "gram matrix"))
