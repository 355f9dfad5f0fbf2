"""Symmetric linear operators with a matrix-free apply contract.

The solver only ever calls ``op.apply(block)``, so problems can be supplied
as dense arrays, CSR sparse matrices, plain diagonals, or the shifted
combination A - theta*B used by the inner solves.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .errors import InvalidMatrix, InvalidShape, Unsupported

__all__ = [
    "LinearOperator",
    "DenseOperator",
    "CsrOperator",
    "DiagonalOperator",
    "ShiftedOperator",
    "as_operator",
    "symmetry_defect",
]

_SYM_RTOL = 1e-12


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
        # one column at a time: a block product is slower on the narrow
        # F-order blocks of the inner solves
        for j in range(x.shape[1]):
            out[:, j] = self._sp @ x[:, j]
        return out

    def diagonal(self):
        return np.asarray(self._sp.diagonal(), dtype=np.float64)


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


def symmetry_defect(op, seed=0, probes=3):
    """max |<Ax, y> - <x, Ay>| over random probe pairs, scale-normalized."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(probes):
        x = np.asfortranarray(rng.standard_normal((op.dim, 1)))
        y = np.asfortranarray(rng.standard_normal((op.dim, 1)))
        ax = op.apply(x)
        ay = op.apply(y)
        num = abs(float(np.vdot(ax, y)) - float(np.vdot(x, ay)))
        den = max(1.0, float(np.abs(ax).max()), float(np.abs(ay).max()))
        worst = max(worst, num / den)
    return worst
