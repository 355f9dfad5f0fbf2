"""Symmetric linear operators with a matrix-free apply contract.

The solver only ever calls ``op.apply(block)``, so problems can be supplied
as dense arrays, CSR sparse matrices, plain diagonals, or the shifted
combination A - theta*B used by the inner solves.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import InvalidMatrix, InvalidShape, Unsupported

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "CsrOperator",
    "DiagonalOperator",
    "ShiftedOperator",
    "as_operator",
]

_SYM_RTOL = 1e-12

# CsrOperator.apply streams the matrix once per block from this width on and
# once per column below it.  The block product pays for a C-order copy of the
# input and a C-order result, which the narrow blocks of the inner solves do
# not earn back.  Microseconds per apply, per-column loop / block, best of
# 7 x 40 interleaved applies (x 10 at n=20000) on F-order input, the last of
# three runs (2-vCPU Xeon guest, scipy 1.17, 1 thread); the clustered matrix
# has 11 entries per row, the fem ones 3:
#
#   k                                  1       2        3        4        5
#   clustered-random n=2000        26/26   50/72    77/75   105/90  130/105
#   fem1d-p1 A-5B n=3000           19/20   40/74    54/75    72/62    98/98
#   fem1d-p1 A-5B n=20000          54/54 113/263  172/299  236/360  299/434
#
#   k                                  6       8       16         40
#   clustered-random n=2000      166/143 217/158  419/235  1502/1701
#   fem1d-p1 A-5B n=3000         118/105 153/122  319/232    806/498
#   fem1d-p1 A-5B n=20000        371/524 514/692 1464/2710 3637/7609
#
#   k                                 80         128
#   clustered-random n=2000    2943/3765   3538/2233
#   fem1d-p1 A-5B n=3000        1126/981   1613/6182
#   fem1d-p1 A-5B n=20000     5975/19869  9630/28296
#
# From 5 to 16 columns the block product ties or wins at n <= 3000.  Wider,
# it loses in places: on the clustered matrix at 40 and 80 columns (three
# runs read 1502/1701, 1893/2260 and 1621/1698 at 40), on the fem one at
# n=3000 at 128 columns, and on the fem one at n=20000 from 2 columns on, by
# up to 3.3x.  The two transposing copies go into fresh temporaries, which the
# allocator maps afresh above its mmap threshold and which fault in page by
# page on every call.  With the malloc trim and mmap thresholds raised,
# clustered k=40 reads 1099/481 and fem n=20000 k=40 2475/3508.
_BLOCK_MIN_COLS = 5

# CsrOperator.gershgorin sums the entries of this many rows at a time.
_GERSHGORIN_ROWS = 4096


class LinearOperator:
    """Base: an N x N symmetric map applied to multivector blocks."""

    kind = "abstract"

    def __init__(self, dim):
        self.dim = int(dim)

    def apply(self, x, out=None):
        raise NotImplementedError

    def diagonal(self):
        raise Unsupported(f"{self.kind} operator does not expose a diagonal")

    def _out(self, x, out):
        if out is None:
            return np.empty((self.dim, x.shape[1]), dtype=np.float64, order="F")
        if out.shape != (self.dim, x.shape[1]):
            raise InvalidShape(f"out shape {out.shape} != {(self.dim, x.shape[1])}")
        return out


class DenseOperator(LinearOperator):
    kind = "dense"

    def __init__(self, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidShape(f"dense operator must be square, got {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidMatrix("dense operator has non-finite entries")
        scale = max(1.0, float(np.abs(a).max(initial=0.0)))
        if float(np.abs(a - a.T).max(initial=0.0)) > _SYM_RTOL * scale:
            raise InvalidMatrix("dense operator is not symmetric")
        super().__init__(a.shape[0])
        self.a = a

    def apply(self, x, out=None):
        out = self._out(x, out)
        np.matmul(self.a, x, out=out)
        return out

    def diagonal(self):
        return np.ascontiguousarray(np.diag(self.a))


class CsrOperator(LinearOperator):
    kind = "csr-sparse"

    def __init__(self, matrix):
        sp = scipy.sparse.csr_matrix(matrix)
        if sp.shape[0] != sp.shape[1]:
            raise InvalidShape(f"sparse operator must be square, got {sp.shape}")
        if not np.isfinite(sp.data).all():
            raise InvalidMatrix("sparse operator has non-finite entries")
        defect = abs(sp - sp.T)
        scale = max(1.0, float(np.abs(sp.data).max(initial=0.0)))
        if defect.nnz and defect.max() > _SYM_RTOL * scale:
            raise InvalidMatrix("sparse operator is not symmetric")
        super().__init__(sp.shape[0])
        sp.sum_duplicates()
        self._sp = sp

    @classmethod
    def _trusted(cls, sp):
        """Wrap a CSR matrix built from already validated operators, without
        validating it again."""
        op = cls.__new__(cls)
        LinearOperator.__init__(op, sp.shape[0])
        op._sp = sp
        return op

    @property
    def nnz(self):
        return int(self._sp.nnz)

    def tocsr(self):
        """The underlying scipy CSR matrix (a copy; safe to mutate)."""
        return self._sp.copy()

    def apply(self, x, out=None):
        out = self._out(x, out)
        if x.shape[1] >= _BLOCK_MIN_COLS:
            # one pass over the matrix for all columns (scipy's csr_matvecs
            # wants C-order input); each row sums its terms in the same
            # order as the per-column product, so the result is identical
            out[...] = self._sp @ np.ascontiguousarray(x)
        else:
            for j in range(x.shape[1]):
                out[:, j] = self._sp @ x[:, j]
        return out

    def diagonal(self):
        return np.asarray(self._sp.diagonal(), dtype=np.float64)

    def band_solver(self):
        """A function that maps a block ``r`` to ``A^-1 r`` by the LAPACK band
        Cholesky factor of this matrix, or None.  The factor is built only
        when its band, ``bw + 1`` rows of ``n`` with ``bw`` the largest
        ``|i - j|`` over the stored entries, holds no more values than the
        matrix stores, and only when the matrix is positive definite."""
        sp, n = self._sp, self.dim
        bw = _half_bandwidth(sp)
        if (bw + 1) * n > sp.nnz:
            return None
        band = np.zeros((bw + 1, n))      # lower form: band[i - j, j] = A[i, j]
        for k in range(bw + 1):
            band[k, : n - k] = sp.diagonal(-k)
        try:
            factor = scipy.linalg.cholesky_banded(
                band, overwrite_ab=True, lower=True, check_finite=False
            )
        except np.linalg.LinAlgError:
            return None
        return lambda r: scipy.linalg.cho_solve_banded((factor, True), r, check_finite=False)

    def diagonal_solver(self, dtype=np.float64):
        """A function ``f(r, out)`` that writes ``r / diag(A)`` into ``out``
        for a block ``r``, with ``1 / diag(A)`` held in ``dtype``, or None
        when a diagonal entry is not positive."""
        d = self.diagonal()
        if not (d > 0.0).all():
            return None
        inv = (1.0 / d).astype(dtype)[:, None]
        return lambda r, out: np.multiply(r, inv, out=out)

    def gershgorin(self):
        """The Gershgorin interval ``(lo, hi)``: the min and max over rows of
        ``a_ii -/+ sum_{j != i} |a_ij|``, which hold every eigenvalue.  The
        row sums are read from ``data`` and ``indptr``, ``_GERSHGORIN_ROWS``
        rows at a time, so no nnz-sized copy is made."""
        sp, d = self._sp, self.diagonal()
        ptr = sp.indptr
        radius = np.zeros(self.dim)
        rows = np.flatnonzero(ptr[1:] > ptr[:-1])
        for k in range(0, rows.size, _GERSHGORIN_ROWS):
            r = rows[k : k + _GERSHGORIN_ROWS]
            first, last = ptr[r[0]], ptr[r[-1] + 1]
            radius[r] = np.add.reduceat(np.abs(sp.data[first:last]), ptr[r] - first)
        radius -= np.abs(d)
        return float((d - radius).min()), float((d + radius).max())


def _half_bandwidth(sp):
    """The largest ``|i - j|`` over the stored entries of a CSR matrix with
    sorted indices, read from the first and last entry of each row."""
    ptr = sp.indptr
    rows = np.flatnonzero(ptr[1:] > ptr[:-1])
    if rows.size == 0:
        return 0
    below = rows - sp.indices[ptr[rows]]
    above = sp.indices[ptr[rows + 1] - 1] - rows
    return int(max(below.max(), above.max()))


class DiagonalOperator(LinearOperator):
    kind = "diagonal"

    def __init__(self, d):
        d = np.asarray(d, dtype=np.float64).ravel()
        if d.size == 0 or not np.isfinite(d).all():
            raise InvalidMatrix("diagonal must be non-empty and finite")
        super().__init__(d.size)
        self.d = d

    def apply(self, x, out=None):
        out = self._out(x, out)
        np.multiply(self.d[:, None], x, out=out)
        return out

    def diagonal(self):
        return self.d.copy()


class ShiftedOperator(LinearOperator):
    """A - theta*B (or A - theta*I when B is None).

    When A and B are both :class:`CsrOperator` and theta is nonzero, the
    combination is assembled once into a single CSR matrix at construction,
    so each apply is one sparse product instead of two plus an update.  Its
    products then differ from the two-product form by rounding only.  Every
    other combination applies A and B separately.

    After ``assemble_single``, float32 blocks are applied with a float32
    copy of the assembled combination; float64 blocks still take the
    float64 products.
    """

    kind = "shifted-combination"

    def __init__(self, a, b=None, theta=0.0):
        if b is not None and b.dim != a.dim:
            raise InvalidShape(f"operator dims differ: {a.dim} vs {b.dim}")
        super().__init__(a.dim)
        self.a = a
        self.b = b
        self.theta = float(theta)
        self._assembled = None
        if self.theta != 0.0 and isinstance(a, CsrOperator) and isinstance(b, CsrOperator):
            self._assembled = CsrOperator._trusted(a._sp - self.theta * b._sp)
        self._single = None

    def assemble_single(self):
        """Assemble ``A - theta*B``, or ``A - theta*I`` without B, in float32
        for the float32 blocks; A must be CSR, and B CSR or None."""
        if self._assembled is not None:
            sp = self._assembled._sp
        else:
            b = scipy.sparse.identity(self.dim, format="csr") if self.b is None else self.b._sp
            sp = self.a._sp - self.theta * b
        self._single = CsrOperator._trusted(sp.astype(np.float32))

    def apply(self, x, out=None):
        if self._single is not None and x.dtype == np.float32:
            return self._single.apply(x, out=out)
        if self._assembled is not None:
            return self._assembled.apply(x, out=out)
        out = self.a.apply(x, out=out)
        if self.theta != 0.0:
            if self.b is None:
                out -= self.theta * x
            else:
                out -= self.theta * self.b.apply(x)
        return out

    def diagonal(self):
        d = self.a.diagonal()
        if self.theta != 0.0:
            if self.b is None:
                d = d - self.theta
            else:
                d = d - self.theta * self.b.diagonal()
        return d


def as_operator(obj):
    """Coerce an ndarray / scipy sparse matrix / operator to LinearOperator."""
    if obj is None or isinstance(obj, LinearOperator):
        return obj
    if scipy.sparse.issparse(obj):
        return CsrOperator(obj)
    arr = np.asarray(obj)
    if arr.ndim == 1:
        return DiagonalOperator(arr)
    if arr.ndim == 2:
        return DenseOperator(arr)
    raise InvalidShape(f"cannot build an operator from shape {arr.shape}")

