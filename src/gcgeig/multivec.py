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


def mv_inner_prod(x, y, b=None, out=None):
    """Gram block out[r, c] = <x_r, B y_c> written straight into ``out``.

    ``out`` may be any strided 2-D view (for example a submatrix of a larger
    projected matrix); only the viewed entries are written and no workspace
    larger than the view is used by the reduction itself.
    """
    if x.shape[0] != y.shape[0]:
        raise InvalidShape(f"row dims differ: {x.shape[0]} vs {y.shape[0]}")
    if out is None:
        out = np.zeros((x.shape[1], y.shape[1]), dtype=np.float64, order="F")
    elif out.shape != (x.shape[1], y.shape[1]):
        raise InvalidShape(f"out shape {out.shape} != ({x.shape[1]}, {y.shape[1]})")
    by = y if b is None else b.apply(y)
    np.matmul(x.T, by, out=out)
    return out
