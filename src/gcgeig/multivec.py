"""Multivector blocks and the matrix-free operations on them.

A multivector is a float64 ndarray of shape (dim, num_cols) in Fortran
(column-major) order: each column is contiguous and column slices alias the
parent storage, so sub-blocks can be updated in place.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidShape

__all__ = ["mv_new", "mv_set_random", "mv_inner_prod"]


def mv_new(dim, num_cols):
    if dim <= 0 or num_cols < 0:
        raise InvalidShape(f"bad multivector shape ({dim}, {num_cols})")
    return np.zeros((dim, num_cols), dtype=np.float64, order="F")


def mv_set_random(x, seed):
    """Fill ``x`` with i.i.d. uniform(-1, 1) entries from PCG64(seed)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x[...] = rng.uniform(-1.0, 1.0, size=x.shape)
    return x


def mv_inner_prod(x, y):
    """Gram block ``x' y`` as a new F-order array.

    The product is written into an F-order output because the output layout
    changes the BLAS rounding, and the solver's numbers are pinned to it.
    """
    if x.shape[0] != y.shape[0]:
        raise InvalidShape(f"row dims differ: {x.shape[0]} vs {y.shape[0]}")
    out = np.zeros((x.shape[1], y.shape[1]), dtype=np.float64, order="F")
    return np.matmul(x.T, y, out=out)
