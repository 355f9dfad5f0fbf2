"""Symmetric linear operators with a matrix-free apply contract.

The solver only ever calls ``op.apply(block)``, so problems can be supplied
as dense arrays, CSR sparse matrices, plain diagonals, or the shifted
combination A - theta*B used by the inner solves.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import InvalidMatrix, InvalidShape

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

# CsrOperator._radii, behind gershgorin and scaled_gershgorin_floor, sums the
# entries of this many rows at a time.
_GERSHGORIN_ROWS = 4096


class LinearOperator:
    """Base: an N x N symmetric map applied to multivector blocks."""

    kind = "abstract"

    def __init__(self, dim):
        self.dim = int(dim)

    def apply(self, x, out=None):
        raise NotImplementedError

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


class CsrOperator(LinearOperator):
    kind = "csr-sparse"

    def __init__(self, matrix):
        # a copy: sum_duplicates below works in place, and the caller's
        # later writes must not reach a matrix that was checked here
        self._take(scipy.sparse.csr_matrix(matrix, copy=True))

    @classmethod
    def _adopt(cls, sp):
        """Wrap a CSR matrix that no one else holds, as the reader and the
        generators build it: the constructor's checks, without its copy."""
        op = cls.__new__(cls)
        op._take(scipy.sparse.csr_matrix(sp, copy=False))
        return op

    def _take(self, sp):
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

    def _radii(self, d, s):
        """The disc radii of ``S^-1 A S`` with ``S = diag(s)``, times ``s``:
        ``sum_{j != i} |a_ij| s_j`` for every row ``i``.  One read of
        ``data``, ``indices`` and ``indptr``, ``_GERSHGORIN_ROWS`` rows at a
        time, so no nnz-sized copy is made."""
        sp = self._sp
        ptr = sp.indptr
        radius = np.zeros(self.dim)
        rows = np.flatnonzero(ptr[1:] > ptr[:-1])
        for k in range(0, rows.size, _GERSHGORIN_ROWS):
            r = rows[k : k + _GERSHGORIN_ROWS]
            first, last = ptr[r[0]], ptr[r[-1] + 1]
            terms = np.abs(sp.data[first:last]) * s[sp.indices[first:last]]
            radius[r] = np.add.reduceat(terms, ptr[r] - first)
        radius -= np.abs(d) * s
        return radius

    def gershgorin(self):
        """The Gershgorin interval ``(lo, hi)``: the min and max over rows of
        ``a_ii -/+ sum_{j != i} |a_ij|``, which hold every eigenvalue.  The
        row sums take one read of the matrix (``_radii`` at ``s = 1``)."""
        d = self.diagonal()
        radius = self._radii(d, np.ones(self.dim))
        return float((d - radius).min()), float((d + radius).max())

    def scaled_gershgorin_floor(self, steps):
        """A lower bound on the smallest eigenvalue from the Gershgorin discs
        of ``S^-1 A S``, ``S = diag(s)``, which has A's eigenvalues for any
        positive ``s``: the best over ``steps`` vectors ``s`` of
        ``min_i (a_ii - sum_{j != i} |a_ij| s_j / s_i)``, one read of the
        matrix each (``_radii``).

        The first ``s`` is 1, whose bound is ``gershgorin()[0]`` itself, so
        the result is never below it.  Each next ``s`` is ``(c*I - <A>) s``,
        a power step towards the Perron vector of the comparison matrix
        ``<A> = diag(A) - |offdiag(A)|``, where the bound tends to
        ``lambda_min(<A>) <= lambda_min(A)`` (Collatz-Wielandt; Varga,
        "Gersgorin and His Circles", ch. 1).  ``c`` lies just above
        Gershgorin's upper end, so ``c*I - <A>`` has nonnegative eigenvalues
        and positive diagonal entries, and ``s`` stays positive.  Any
        positive ``s`` gives a bound, so only the evaluation rounds: each
        row's bound past the first ``s`` gives up ``(k + 2) * eps`` of
        ``|a_ii|`` plus its radius, for its ``k`` stored entries.  A matrix
        without off-diagonal entries has point discs: the first read gives
        its exact smallest eigenvalue, and the steps are skipped."""
        d, s = self.diagonal(), np.ones(self.dim)
        radius = self._radii(d, s)
        lo, hi = float((d - radius).min()), float((d + radius).max())
        if not radius.any():
            return lo
        c = hi + (hi - lo) / 64.0   # hi - lo is at least twice every radius
        slack = (np.diff(self._sp.indptr) + 2) * np.finfo(np.float64).eps
        best = lo
        for _ in range(steps - 1):
            s *= c - d
            s += radius
            s /= s.max()
            radius = self._radii(d, s)
            rho = radius / s
            best = max(best, float((d - rho - slack * (np.abs(d) + rho)).min()))
        return best


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


class ShiftedOperator(LinearOperator):
    """A - theta*B (or A - theta*I when B is None), for the inner solves.

    When A is a :class:`CsrOperator` and B a :class:`CsrOperator` or None,
    the combination is assembled once, at construction, into one CSR matrix
    held in ``dtype``, so each apply is one sparse product; at theta 0 in
    float64 that matrix is A itself, not a copy.  Its products differ from
    the two-product form by rounding only.  Dense, diagonal and user
    operators keep applying A and B separately, in float64.
    """

    kind = "shifted-combination"

    def __init__(self, a, b=None, theta=0.0, dtype=np.float64):
        if b is not None and b.dim != a.dim:
            raise InvalidShape(f"operator dims differ: {a.dim} vs {b.dim}")
        super().__init__(a.dim)
        self.a = a
        self.b = b
        self.theta = float(theta)
        self._assembled = None
        if isinstance(a, CsrOperator) and isinstance(b, (CsrOperator, type(None))):
            sp = a._sp
            if self.theta != 0.0:
                b_sp = scipy.sparse.identity(self.dim, format="csr") if b is None else b._sp
                sp = sp - self.theta * b_sp
            sp = sp.astype(dtype, copy=False)
            self._assembled = a if sp is a._sp else CsrOperator._trusted(sp)

    def apply(self, x, out=None):
        if self._assembled is not None:
            return self._assembled.apply(x, out=out)
        out = self.a.apply(x, out=out)
        if self.theta != 0.0:
            if self.b is None:
                out -= self.theta * x
            else:
                out -= self.theta * self.b.apply(x)
        return out


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

