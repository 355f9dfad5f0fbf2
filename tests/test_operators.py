import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import gcgeig.operators
from gcgeig.errors import InvalidMatrix, InvalidShape
from gcgeig.operators import (
    CsrOperator,
    DenseOperator,
    DiagonalOperator,
    ShiftedOperator,
    _BLOCK_MIN_COLS,
    _half_bandwidth,
    as_operator,
)

from conftest import neumann_tridiag, tridiag


def spd_dense(rng, n):
    raw = rng.standard_normal((n, n))
    return raw @ raw.T + n * np.eye(n)


class TestApply:
    def test_dense(self, rng):
        a = spd_dense(rng, 10)
        x = np.asfortranarray(rng.standard_normal((10, 3)))
        assert np.abs(DenseOperator(a).apply(x) - a @ x).max() < 1e-12

    @pytest.mark.parametrize("layout", ["F", "C", "out-view"])
    @pytest.mark.parametrize("k", [1, 2, _BLOCK_MIN_COLS - 1, _BLOCK_MIN_COLS, 8, 40])
    @pytest.mark.parametrize("kind", ["tridiag", "random"])
    def test_csr(self, rng, kind, k, layout):
        """Below and above the block-product width, in either input layout
        and into a column-prefix view of a wider array (as the inner CG
        passes it), the product equals the per-column one exactly."""
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
        sp = scipy.sparse.csr_matrix(dense)
        x = rng.standard_normal((n, k))
        x = np.ascontiguousarray(x) if layout == "C" else np.asfortranarray(x)
        expect = np.column_stack([sp @ x[:, j] for j in range(k)])
        op = CsrOperator(sp)
        if layout == "out-view":
            wide = np.zeros((n, k + 3), order="F")
            out = wide[:, :k]
            got = op.apply(x, out=out)
            assert got is out
            assert not wide[:, k:].any()
        else:
            got = op.apply(x)
            assert got.flags.f_contiguous
        np.testing.assert_array_equal(got, expect)
        assert np.abs(got - dense @ x).max() < tol

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

    def test_csr_leaves_the_caller_arrays_alone(self):
        """[[2, 1], [1, 3]] stored with a duplicate entry and unsorted
        indices: the operator sums the duplicates in its own copy, and the
        caller's ``data``, ``indices`` and ``indptr`` keep what they held."""
        data, indices, indptr = [0.5, 2.0, 0.5, 3.0, 1.0], [1, 0, 1, 1, 0], [0, 3, 5]
        m = scipy.sparse.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), (2, 2))
        op = CsrOperator(m)
        np.testing.assert_array_equal(m.data, data)
        np.testing.assert_array_equal(m.indices, indices)
        np.testing.assert_array_equal(m.indptr, indptr)
        np.testing.assert_array_equal(op.apply(np.eye(2)), [[2.0, 1.0], [1.0, 3.0]])

    def test_csr_does_not_share_the_caller_arrays(self, rng):
        """Writes into the caller's matrix after the checks do not reach the
        operator: zeroing its entries leaves the product as it was."""
        m = tridiag(30, -1.0, 2.0, -1.0)
        op = CsrOperator(m)
        x = np.asfortranarray(rng.standard_normal((30, 2)))
        expect = m @ x
        m.data *= 0.0
        np.testing.assert_array_equal(op.apply(x), expect)

    def test_csr_adopt_shares_the_matrix(self, rng):
        """The internal constructor for matrices the package builds itself
        keeps the caller's arrays, and its operator applies as the copying
        constructor's does."""
        m = tridiag(30, -1.0, 2.0, -1.0)
        op = CsrOperator._adopt(m)
        assert np.shares_memory(op._sp.data, m.data)
        assert np.shares_memory(op._sp.indices, m.indices)
        x = np.asfortranarray(rng.standard_normal((30, 6)))
        np.testing.assert_array_equal(op.apply(x), CsrOperator(m).apply(x))

    @pytest.mark.parametrize("bad", ["rectangular", "asymmetric", "non-finite"])
    def test_csr_adopt_checks_as_the_constructor_does(self, bad):
        m = {
            "rectangular": scipy.sparse.csr_matrix(np.ones((3, 4))),
            "asymmetric": scipy.sparse.csr_matrix(np.triu(np.ones((4, 4)))),
            "non-finite": scipy.sparse.csr_matrix(np.diag([1.0, np.nan, 2.0])),
        }[bad]
        with pytest.raises((InvalidShape, InvalidMatrix)) as want:
            CsrOperator(m)
        with pytest.raises(want.type) as got:
            CsrOperator._adopt(m)
        assert str(got.value) == str(want.value)


class TestAsOperator:
    def test_coercions(self):
        assert as_operator(np.eye(3)).kind == "dense"
        assert as_operator(scipy.sparse.eye(3).tocsr()).kind == "csr-sparse"
        assert as_operator(np.ones(3)).kind == "diagonal"
        op = DiagonalOperator(np.ones(2))
        assert as_operator(op) is op
        assert as_operator(None) is None


class TestShiftedAssembly:
    """A - theta*B, or A - theta*I, is assembled into one CSR matrix in the
    operator's dtype when A is CSR and B is CSR or None; every other
    combination keeps applying A and B separately."""

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

    def _assert_one_product(self, rng, a, b, theta):
        x = np.asfortranarray(rng.standard_normal((a.dim, 3)))
        expect = self._two_products(a, b, theta, x)
        op = ShiftedOperator(a, b, theta)
        a_calls = self._counting(a)
        b_calls = self._counting(b) if b is not None else []
        got = op.apply(x)
        assert a_calls == [] and b_calls == []
        scale = float(np.abs(expect).max())
        assert float(np.abs(got - expect).max()) <= 1e-13 * scale
        out = np.empty((a.dim, 3), order="F")
        assert op.apply(x, out=out) is out
        np.testing.assert_array_equal(out, got)

    def test_csr_pair_is_one_product(self, rng):
        a, b = self._csr_pair(rng)
        self._assert_one_product(rng, a, b, 1.7)

    def test_csr_alone_is_one_product(self, rng):
        a, _ = self._csr_pair(rng, 30)
        self._assert_one_product(rng, a, None, -0.9)

    @pytest.mark.parametrize("theta", [1.7, 0.0])
    @pytest.mark.parametrize("partner", ["pair", "alone"])
    def test_float32_against_the_float64_product(self, rng, partner, theta):
        """In float32 the one product takes a float32 block to a float32
        block within float32 rounding of the float64 two-product form: each
        entry of the assembled matrix rounds once, and each row sums at
        most k terms, so entry i is off by at most ``(k + 2) * 2**-24`` times
        ``(|A| |x| + |theta| |B| |x|)_i``."""
        a, b = self._csr_pair(rng)
        if partner == "alone":
            b = None
        x = np.asfortranarray(rng.standard_normal((a.dim, 3)), dtype=np.float32)
        op = ShiftedOperator(a, b, theta, dtype=np.float32)
        a_calls = self._counting(a)
        b_calls = self._counting(b) if b is not None else []
        out = np.empty(x.shape, np.float32, order="F")
        assert op.apply(x, out=out) is out
        assert a_calls == [] and b_calls == []
        x64 = x.astype(np.float64)
        expect = self._two_products(a, b, theta, x64)
        b_abs = scipy.sparse.identity(a.dim, format="csr") if b is None else abs(b.tocsr())
        k = int(np.diff((abs(a.tocsr()) + b_abs).indptr).max())
        mag = abs(a.tocsr()) @ np.abs(x64) + abs(theta) * (b_abs @ np.abs(x64))
        assert (np.abs(out - expect) <= (k + 2) * 2.0**-24 * mag).all()

    def test_zero_shift_applies_a_alone(self, rng):
        """At theta 0 in float64 the operator applies A's own matrix:
        building it copies nothing of A, and each apply is A's product."""
        a, b = self._csr_pair(rng, 400)
        x = np.asfortranarray(rng.standard_normal((a.dim, 2)))
        tracemalloc.start()
        op = ShiftedOperator(a, b, 0.0)
        built, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert built < a.tocsr().data.nbytes
        a_calls, b_calls = self._counting(a), self._counting(b)
        np.testing.assert_array_equal(op.apply(x), a.apply(x))
        assert a_calls == [2, 2] and b_calls == []

    @pytest.mark.parametrize("kind", ["dense-diag", "dense-dense", "csr-diag"])
    def test_other_paths_bit_identical(self, rng, kind):
        n = 30
        a_mat = spd_dense(rng, n)
        d = rng.uniform(1.0, 2.0, n)
        csr, _ = self._csr_pair(rng, n)
        a, b = {
            "dense-diag": (DenseOperator(a_mat), DiagonalOperator(d)),
            "dense-dense": (DenseOperator(a_mat), DenseOperator(np.diag(d))),
            "csr-diag": (csr, DiagonalOperator(d)),
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
        def __init__(self, a, b=None, theta=0.0, dtype=np.float64):
            built.append(theta)
            super().__init__(a, b, theta, dtype)

    monkeypatch.setattr(gcgeig.solver, "ShiftedOperator", Counting)
    a, b = generate_builtin("fem1d-p1", 200, seed=0)
    rep = gcg_solve(a, b, SolverConfig(num_eigen=6, tol=1e-8, seed=3))
    assert rep.status == "converged"
    thetas = [h.theta for h in rep.history if h.cg_iterations > 0]
    assert len(set(thetas) - {0.0}) >= 2
    assert built == sorted(set(thetas))


def _laplacian3d(m):
    """The 7-point Laplacian on an m x m x m grid: half-bandwidth m*m."""
    t, i = tridiag(m, -1.0, 2.0, -1.0), scipy.sparse.identity(m, format="csr")
    return (
        scipy.sparse.kron(scipy.sparse.kron(t, i), i)
        + scipy.sparse.kron(scipy.sparse.kron(i, t), i)
        + scipy.sparse.kron(scipy.sparse.kron(i, i), t)
    ).tocsr()


class TestBandSolver:
    """The band Cholesky solve is built when the band (bw + 1 rows of n) holds
    no more values than A stores and A is positive definite."""

    @pytest.mark.parametrize("kind,bw", [("laplacian1d", 1), ("fem1d-p1", 1), ("diag-range", 0)])
    def test_built_for_narrow_bands(self, rng, kind, bw):
        from gcgeig import generate_builtin

        a, _ = generate_builtin(kind, 300, seed=1)
        assert _half_bandwidth(a._sp) == bw
        solve = a.band_solver()
        assert solve is not None
        r = np.asfortranarray(rng.standard_normal((a.dim, 4)))
        z = solve(r)
        assert z.shape == r.shape
        assert np.linalg.norm(a.apply(z) - r) <= 1e-12 * np.linalg.norm(r)

    def test_not_built_for_wide_bands(self):
        from gcgeig import generate_builtin

        a, _ = generate_builtin("clustered-random", 300, seed=1)
        assert _half_bandwidth(a._sp) > 250
        assert a.band_solver() is None
        lap = CsrOperator(_laplacian3d(10))   # about 6.4 entries per row
        assert _half_bandwidth(lap._sp) == 100
        assert lap.band_solver() is None

    @pytest.mark.parametrize(
        "matrix",
        [tridiag(50, -1.0, 1.5, -1.0), neumann_tridiag(50)],
        ids=["indefinite", "singular-neumann"],
    )
    def test_not_built_unless_positive_definite(self, matrix):
        a = CsrOperator(matrix)
        assert _half_bandwidth(a._sp) == 1
        assert a.band_solver() is None


class TestDiagonalSolver:
    """The scaling by 1/diag(A) is built when every diagonal entry is
    positive, and writes into the block it is handed."""

    def test_built_for_a_positive_diagonal(self, rng):
        from gcgeig import generate_builtin

        a, _ = generate_builtin("clustered-random", 300, seed=1)
        scale = a.diagonal_solver()
        assert scale is not None
        r = np.asfortranarray(rng.standard_normal((a.dim, 4)))
        before = r.copy()
        out = np.empty_like(r, order="F")
        scale(r, out)
        np.testing.assert_array_equal(r, before)
        np.testing.assert_array_equal(out, r * (1.0 / a.diagonal())[:, None])
        # the solver hands it a leading block of CG's work array
        work = np.zeros((a.dim, 6), order="F")
        scale(r, work[:, :4])
        np.testing.assert_array_equal(work[:, :4], out)
        assert not work[:, 4:].any()

    @pytest.mark.parametrize("entry", [0.0, -1.0])
    def test_not_built_for_a_nonpositive_entry(self, entry):
        m = tridiag(50, -1.0, 2.0, -1.0).tolil()
        m[7, 7] = entry
        assert CsrOperator(m.tocsr()).diagonal_solver() is None


def _diagonally_dominant(n, seed):
    """A random symmetric CSR matrix whose diagonal exceeds each row's
    off-diagonal absolute sum by a random margin in [0.1, 1.1]."""
    rng = np.random.default_rng(seed)
    off = scipy.sparse.random(n, n, density=0.05, random_state=seed, format="csr")
    off.data = rng.standard_normal(off.nnz)
    off = off + off.T
    off.setdiag(0.0)
    off.eliminate_zeros()
    rowsum = np.asarray(abs(off).sum(axis=1)).ravel()
    return (off + scipy.sparse.diags(rowsum + 0.1 + rng.random(n))).tocsr()


class TestGershgorin:
    """The Gershgorin interval holds the spectrum, and the solver's floor
    under it is positive only when A's interval lies above 0."""

    @staticmethod
    def _reference(m):
        dense = m.toarray()
        d = np.diag(dense)
        radius = np.abs(dense).sum(axis=1) - np.abs(d)
        return (d - radius).min(), (d + radius).max()

    @pytest.mark.parametrize("seed", range(6))
    def test_holds_the_spectrum(self, seed):
        m = _diagonally_dominant(80, seed)
        lo, hi = CsrOperator(m).gershgorin()
        vals = np.linalg.eigvalsh(m.toarray())
        assert 0.0 < lo <= vals[0] and vals[-1] <= hi
        np.testing.assert_allclose((lo, hi), self._reference(m), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_floor_under_a_generalized_spectrum(self, seed):
        """The floor is A's scaled-disc bound over B's upper end, at or
        above the plain ``lo_A / hi_B`` and under the pencil's spectrum."""
        from gcgeig import generate_builtin
        from gcgeig.solver import _FLOOR_STEPS, _inner_setup

        n = 60
        a = CsrOperator(_diagonally_dominant(n, seed))
        _, b = generate_builtin("fem1d-p1", n)   # its P1 mass matrix
        floor = _inner_setup(a, b, None, 0.01)[0]
        hi_b = b.gershgorin()[1]
        assert floor == a.scaled_gershgorin_floor(_FLOOR_STEPS) / hi_b
        assert floor >= a.gershgorin()[0] / hi_b > 0.0
        vals = scipy.linalg.eigh(a.tocsr().toarray(), b.tocsr().toarray(), eigvals_only=True)
        assert floor <= vals[0]

    def test_exact_on_a_diagonal(self):
        d = np.array([3.0, -1.5, 7.25, 0.5, 2.0])
        assert CsrOperator(scipy.sparse.diags(d, format="csr")).gershgorin() == (-1.5, 7.25)

    def test_row_blocks_and_empty_rows(self, monkeypatch):
        """Rows summed in several blocks, with empty rows inside and at the
        end of a block, give the dense reference."""
        m = _diagonally_dominant(50, 7).tolil()
        for i in (0, 3, 4, 49):
            m[i, :] = 0.0
            m[:, i] = 0.0
        m = m.tocsr()
        m.eliminate_zeros()
        monkeypatch.setattr(gcgeig.operators, "_GERSHGORIN_ROWS", 4)
        np.testing.assert_allclose(CsrOperator(m).gershgorin(), self._reference(m), rtol=1e-12)

    @pytest.mark.parametrize(
        "kind", ["fem1d-p1", "laplacian1d", "indefinite", "dense", "diagonal", "dense-b"]
    )
    def test_floor_is_zero(self, kind):
        """Laplacian rows sum to 0 and an indefinite A has a negative lower
        end; only CSR matrices are read, so dense and diagonal A, or a dense
        B, keep the floor at 0 even when A is diagonally dominant."""
        from gcgeig import generate_builtin
        from gcgeig.solver import _inner_setup

        spd = _diagonally_dominant(40, 1)
        a, b = {
            "fem1d-p1": lambda: generate_builtin("fem1d-p1", 200),
            "laplacian1d": lambda: generate_builtin("laplacian1d", 200),
            "indefinite": lambda: (CsrOperator(tridiag(50, -1.0, 1.5, -1.0)), None),
            "dense": lambda: (as_operator(spd.toarray()), None),
            "diagonal": lambda: (as_operator(np.arange(1.0, 41.0)), None),
            "dense-b": lambda: (CsrOperator(spd), as_operator(np.eye(40))),
        }[kind]()
        assert _inner_setup(a, b, None, 0.01)[0] == 0.0
        if kind in ("fem1d-p1", "laplacian1d"):
            assert a.gershgorin()[0] == 0.0


def _dominant_with_bare_rows(n, seed):
    """A strictly diagonally dominant CSR matrix with mixed-sign entries off
    the diagonal, where every seventh row has no off-diagonal entry.  Those
    rows hold the largest diagonal entries, so ``c`` must lie strictly above
    ``hi`` to keep ``s`` positive on them."""
    m = _diagonally_dominant(n, seed).tolil()
    top = m.diagonal().max()
    for i in range(3, n, 7):
        m[i, :] = 0.0
        m[:, i] = 0.0
        m[i, i] = top * (1.0 + i / n)
    m = m.tocsr()
    m.eliminate_zeros()
    return m


def _scaled_floor_reference(m, steps):
    """The scaled-disc floor from the dense matrix, step for step."""
    dense = m.toarray()
    d = np.diag(dense)
    off = np.abs(dense - np.diag(d))
    s, best, c = np.ones(len(d)), -np.inf, None
    for _ in range(steps):
        radius = off @ s
        best = max(best, (d - radius / s).min())
        if c is None:
            hi = (d + radius).max()
            c = hi + (hi - best) / 64.0
        s = (c - d) * s + radius
        s /= s.max()
    return best


class TestScaledGershgorinFloor:
    """The best Gershgorin bound of ``S^-1 A S`` over a few power steps on
    the comparison matrix lies between A's Gershgorin lower end and its
    smallest eigenvalue."""

    @pytest.mark.parametrize("n,seed", [(20, 0), (35, 1), (50, 2), (65, 3), (80, 4)])
    def test_between_gershgorin_and_lambda_min(self, n, seed):
        from gcgeig.solver import _FLOOR_STEPS

        m = _dominant_with_bare_rows(n, seed)
        op = CsrOperator(m)
        lo = op.gershgorin()[0]
        floors = [op.scaled_gershgorin_floor(k) for k in (1, 4, _FLOOR_STEPS, 64)]
        lam = np.linalg.eigvalsh(m.toarray())[0]
        assert floors[0] == lo
        assert 0.0 < lo < floors[1] <= floors[2] <= floors[3] <= lam

    def test_m_matrix_tends_to_lambda_min(self):
        """``tridiag(-1, 2.5, -1)`` is its own comparison matrix, so the
        bound tends to its smallest eigenvalue.  A power step changes ``s``
        one row further in from each end, so on n=12 the default steps
        already reach the middle rows and lift the floor above 0.5."""
        from gcgeig.solver import _FLOOR_STEPS

        n = 12
        op = CsrOperator(tridiag(n, -1.0, 2.5, -1.0))
        lam = 2.5 - 2.0 * np.cos(np.pi / (n + 1))
        floor = op.scaled_gershgorin_floor(_FLOOR_STEPS)
        assert op.gershgorin()[0] == 0.5 < floor <= lam
        assert lam - 1e-3 < op.scaled_gershgorin_floor(200) <= lam

    def test_exact_on_a_diagonal_without_warnings(self):
        """Point discs: the bound is the smallest entry, and no step divides
        by a vanished ``s``."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = np.array([3.0, -1.5, 7.25, 0.5, 2.0])
            assert CsrOperator(scipy.sparse.diags(d, format="csr")).scaled_gershgorin_floor(8) == -1.5
            eye = CsrOperator(scipy.sparse.identity(6, format="csr"))
            assert eye.scaled_gershgorin_floor(8) == 1.0

    def test_row_blocks_and_empty_rows(self, monkeypatch):
        """Rows read in several blocks, with empty rows inside and at the
        end of a block, give the dense reference."""
        m = _dominant_with_bare_rows(50, 7).tolil()
        for i in (0, 4, 49):
            m[i, :] = 0.0
            m[:, i] = 0.0
        m = m.tocsr()
        m.eliminate_zeros()
        monkeypatch.setattr(gcgeig.operators, "_GERSHGORIN_ROWS", 4)
        for steps in (1, 3, 16):
            np.testing.assert_allclose(
                CsrOperator(m).scaled_gershgorin_floor(steps),
                _scaled_floor_reference(m, steps), rtol=1e-12,
            )
