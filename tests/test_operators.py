import numpy as np
import pytest
import scipy.sparse

from gcgeig.errors import InvalidMatrix, Unsupported
from gcgeig.operators import (
    CsrOperator,
    DenseOperator,
    DiagonalOperator,
    ShiftedOperator,
    as_operator,
    symmetry_defect,
)


def spd_dense(rng, n):
    raw = rng.standard_normal((n, n))
    return raw @ raw.T + n * np.eye(n)


def all_kinds(rng, n=20):
    a = spd_dense(rng, n)
    tri = scipy.sparse.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    d = rng.uniform(1.0, 2.0, n)
    return [
        DenseOperator(a),
        CsrOperator(tri.tocsr()),
        DiagonalOperator(d),
        ShiftedOperator(DenseOperator(a), DiagonalOperator(d), theta=0.7),
        ShiftedOperator(DenseOperator(a), None, theta=-1.3),
    ]


class TestApply:
    def test_dense(self, rng):
        a = spd_dense(rng, 10)
        x = np.asfortranarray(rng.standard_normal((10, 3)))
        assert np.abs(DenseOperator(a).apply(x) - a @ x).max() < 1e-12

    @pytest.mark.parametrize("kind", ["tridiag", "random"])
    def test_csr(self, rng, kind):
        if kind == "tridiag":
            n, tol = 25, 1e-13
            dense = scipy.sparse.diags(
                [-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]
            ).toarray()
        else:
            n, tol = 40, 1e-12
            dense = np.zeros((n, n))
            for _ in range(120):
                i, j = rng.integers(0, n, size=2)
                w = rng.standard_normal()
                dense[i, j] += w
                dense[j, i] += w
        x = np.asfortranarray(rng.standard_normal((n, 4)))
        got = CsrOperator(scipy.sparse.csr_matrix(dense)).apply(x)
        assert np.abs(got - dense @ x).max() < tol
        assert got.flags.f_contiguous

    def test_diagonal(self, rng):
        d = rng.uniform(0.5, 2.0, 8)
        x = np.asfortranarray(rng.standard_normal((8, 2)))
        assert np.abs(DiagonalOperator(d).apply(x) - d[:, None] * x).max() < 1e-15

    def test_shifted_combination(self, rng):
        n = 9
        a = spd_dense(rng, n)
        bdiag = rng.uniform(1.0, 3.0, n)
        op = ShiftedOperator(DenseOperator(a), DiagonalOperator(bdiag), theta=2.5)
        x = np.asfortranarray(rng.standard_normal((n, 3)))
        expect = a @ x - 2.5 * (bdiag[:, None] * x)
        assert np.abs(op.apply(x) - expect).max() < 1e-12

    def test_out_reused(self, rng):
        a = spd_dense(rng, 6)
        op = DenseOperator(a)
        x = np.asfortranarray(rng.standard_normal((6, 2)))
        out = np.zeros((6, 2), order="F")
        ret = op.apply(x, out=out)
        assert ret is out


class TestSymmetryProbe:
    def test_all_shipped_kinds_are_symmetric(self, rng):
        for op in all_kinds(rng):
            assert symmetry_defect(op, seed=5, probes=4) < 1e-12

    def test_probe_catches_asymmetry(self):
        class Skewed(DenseOperator):
            def __init__(self):
                super().__init__(np.eye(4))
                self.a = np.eye(4)
                self.a[0, 1] = 1.0

        assert symmetry_defect(Skewed(), seed=5, probes=4) > 1e-3


class TestValidation:
    def test_dense_asymmetric_rejected(self):
        m = np.eye(4)
        m[0, 3] = 0.2
        with pytest.raises(InvalidMatrix):
            DenseOperator(m)

    def test_csr_asymmetric_rejected(self):
        m = scipy.sparse.csr_matrix(np.triu(np.ones((4, 4))))
        with pytest.raises(InvalidMatrix):
            CsrOperator(m)

    def test_non_finite_rejected(self):
        m = np.eye(3)
        m[1, 1] = np.inf
        with pytest.raises(InvalidMatrix):
            DenseOperator(m)

    def test_diagonal_hook(self, rng):
        n = 7
        a = spd_dense(rng, n)
        d = rng.uniform(1.0, 2.0, n)
        op = ShiftedOperator(DenseOperator(a), DiagonalOperator(d), theta=1.5)
        assert np.abs(op.diagonal() - (np.diag(a) - 1.5 * d)).max() < 1e-13

    def test_diagonal_unsupported_for_abstract(self):
        from gcgeig.operators import LinearOperator

        with pytest.raises(Unsupported):
            LinearOperator(4).diagonal()


class TestAsOperator:
    def test_coercions(self):
        assert as_operator(np.eye(3)).kind == "dense"
        assert as_operator(scipy.sparse.eye(3).tocsr()).kind == "csr-sparse"
        assert as_operator(np.ones(3)).kind == "diagonal"
        op = DiagonalOperator(np.ones(2))
        assert as_operator(op) is op
        assert as_operator(None) is None


class TestShiftedAssembly:
    """A - theta*B is assembled into one CSR matrix when A and B are both
    CSR; every other combination keeps applying A and B separately."""

    @staticmethod
    def _csr_pair(rng, n=40):
        off = -np.ones(n - 1)
        a = scipy.sparse.diags([off, 2.0 * np.ones(n), off], [-1, 0, 1], format="csr")
        m = scipy.sparse.random(n, n, density=0.1, random_state=7, format="csr")
        b = m @ m.T + scipy.sparse.identity(n, format="csr")
        return CsrOperator(a), CsrOperator(b.tocsr())

    @staticmethod
    def _two_products(a, b, theta, x):
        """What ShiftedOperator.apply computed before any assembly."""
        out = a.apply(x)
        if theta != 0.0:
            out -= theta * (x if b is None else b.apply(x))
        return out

    @staticmethod
    def _counting(op):
        calls = []
        inner = op.apply

        def apply(x, out=None):
            calls.append(x.shape[1])
            return inner(x, out=out)

        op.apply = apply
        return calls

    def test_csr_pair_is_one_product(self, rng):
        a, b = self._csr_pair(rng)
        x = np.asfortranarray(rng.standard_normal((a.dim, 3)))
        theta = 1.7
        expect = self._two_products(a, b, theta, x)
        op = ShiftedOperator(a, b, theta)
        a_calls, b_calls = self._counting(a), self._counting(b)
        got = op.apply(x)
        assert a_calls == [] and b_calls == []
        scale = float(np.abs(expect).max())
        assert float(np.abs(got - expect).max()) <= 1e-13 * scale
        out = np.empty((a.dim, 3), order="F")
        assert op.apply(x, out=out) is out
        np.testing.assert_array_equal(out, got)

    def test_csr_pair_diagonal_unchanged(self, rng):
        a, b = self._csr_pair(rng)
        op = ShiftedOperator(a, b, 1.7)
        np.testing.assert_array_equal(op.diagonal(), a.diagonal() - 1.7 * b.diagonal())

    def test_zero_shift_applies_a_alone(self, rng):
        a, b = self._csr_pair(rng)
        x = np.asfortranarray(rng.standard_normal((a.dim, 2)))
        np.testing.assert_array_equal(ShiftedOperator(a, b, 0.0).apply(x), a.apply(x))

    @pytest.mark.parametrize("kind", ["dense-diag", "dense-dense", "csr-diag", "csr-none"])
    def test_other_paths_bit_identical(self, rng, kind):
        n = 30
        a_mat = spd_dense(rng, n)
        d = rng.uniform(1.0, 2.0, n)
        csr, _ = self._csr_pair(rng, n)
        a, b = {
            "dense-diag": (DenseOperator(a_mat), DiagonalOperator(d)),
            "dense-dense": (DenseOperator(a_mat), DenseOperator(np.diag(d))),
            "csr-diag": (csr, DiagonalOperator(d)),
            "csr-none": (csr, None),
        }[kind]
        x = np.asfortranarray(rng.standard_normal((n, 4)))
        theta = -0.9
        expect = self._two_products(a, b, theta, x)
        a_calls = self._counting(a)
        got = ShiftedOperator(a, b, theta).apply(x)
        assert a_calls == [4]
        np.testing.assert_array_equal(got, expect)


def test_solver_builds_one_shifted_operator_per_theta(monkeypatch):
    import gcgeig.solver
    from gcgeig import SolverConfig, gcg_solve, generate_builtin

    built = []

    class Counting(ShiftedOperator):
        def __init__(self, a, b=None, theta=0.0):
            built.append(theta)
            super().__init__(a, b, theta)

    monkeypatch.setattr(gcgeig.solver, "ShiftedOperator", Counting)
    a, b = generate_builtin("fem1d-p1", 200, seed=0)
    rep = gcg_solve(a, b, SolverConfig(num_eigen=6, tol=1e-8, seed=3))
    assert rep.status == "converged"
    thetas = [h.theta for h in rep.history if h.cg_iterations > 0 and h.theta != 0.0]
    assert len(set(thetas)) >= 2
    assert built == sorted(set(thetas))
