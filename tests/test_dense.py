import numpy as np
import pytest

from gcgeig.dense import SpectralDecomposition, gram_svd, sym_eig_full, sym_eig_range
from gcgeig.errors import InvalidMatrix, InvalidRange


def oracle_eigvals_power_deflate(m, iters=200000, tol=1e-13):
    """Independent eigenvalue oracle: power iteration on a Gershgorin-shifted
    copy of m, deflating one converged pair at a time.  Deliberately shares
    no code path with the library (no LAPACK call)."""
    m = np.array(m, dtype=float)
    n = m.shape[0]
    shift = np.abs(m).sum(axis=1).max() + 1.0
    work = m + shift * np.eye(n)
    vals = []
    rng = np.random.default_rng(12345)
    for _ in range(n):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        lam = v @ work @ v
        for _ in range(iters):
            w = work @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v = w / nw
            new = v @ work @ v
            if abs(new - lam) < tol * max(1.0, abs(new)):
                lam = new
                break
            lam = new
        vals.append(lam)
        work = work - lam * np.outer(v, v)
    return np.sort(np.array(vals) - shift)


def fixture_m8():
    rng = np.random.default_rng(2024)
    raw = rng.uniform(-1.0, 1.0, size=(8, 8))
    return (raw + raw.T) / 2.0


# Oracle output for fixture_m8, frozen (power iteration + deflation, above).
M8_EXPECTED = np.array([
    -2.1580431328215499,
    -1.1291240779162703,
    -0.51849480891576771,
    -0.004188507418809273,
    0.55367578027238906,
    0.85701653312729231,
    1.0785963180168601,
    1.7362437177418695,
])


class TestSymEigFull:
    def test_identity(self):
        dec = sym_eig_full(np.eye(4))
        assert np.allclose(dec.values, 1.0)
        assert dec.vectors.shape == (4, 4)

    def test_random_8x8_against_power_deflation_oracle(self):
        m = fixture_m8()
        dec = sym_eig_full(m)
        assert np.abs(dec.values - M8_EXPECTED).max() < 1e-10
        # keep the oracle honest as well
        assert np.abs(oracle_eigvals_power_deflate(m) - M8_EXPECTED).max() < 1e-10

    def test_residuals_and_orthonormality(self):
        m = fixture_m8()
        dec = sym_eig_full(m)
        r = m @ dec.vectors - dec.vectors * dec.values
        assert np.abs(r).max() < 1e-13
        g = dec.vectors.T @ dec.vectors
        assert np.abs(g - np.eye(8)).max() < 1e-13

    def test_values_ascending(self):
        dec = sym_eig_full(fixture_m8())
        assert np.all(np.diff(dec.values) >= 0)

    def test_sign_convention(self):
        dec = sym_eig_full(fixture_m8())
        for j in range(8):
            col = dec.vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_non_finite_rejected(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(InvalidMatrix):
            sym_eig_full(m)

    def test_asymmetric_rejected(self):
        m = np.eye(3)
        m[0, 2] = 0.5
        with pytest.raises(InvalidMatrix):
            sym_eig_full(m)


class TestSymEigRange:
    def test_diag_range(self):
        m = np.diag(np.arange(1.0, 7.0))
        dec = sym_eig_range(m, 3, 5)
        assert np.allclose(dec.values, [3.0, 4.0, 5.0], atol=1e-12)

    def test_range_matches_slice_of_full(self):
        # property check across random sizes and subranges
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            raw = rng.standard_normal((n, n))
            m = (raw + raw.T) / 2.0
            lo = int(rng.integers(1, n + 1))
            hi = int(rng.integers(lo, n + 1))
            full = sym_eig_full(m)
            part = sym_eig_range(m, lo, hi)
            assert np.abs(part.values - full.values[lo - 1 : hi]).max() < 1e-12

    @pytest.mark.parametrize("lo,hi", [(0, 2), (3, 2), (1, 9), (-1, 1)])
    def test_invalid_ranges(self, lo, hi):
        with pytest.raises(InvalidRange):
            sym_eig_range(np.eye(5), lo, hi)


class TestGramSvd:
    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 6))
        m = x.T @ x
        dec = gram_svd(m)
        rec = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
        assert np.abs(rec - m).max() < 1e-12 * max(1.0, np.abs(m).max())

    @pytest.mark.parametrize("rank", [1, 3, 5])
    def test_known_rank(self, rank):
        rng = np.random.default_rng(rank)
        dim = 6
        y = rng.standard_normal((40, rank)) @ rng.standard_normal((rank, dim))
        m = y.T @ y
        dec = gram_svd(m)
        thresh = 1e-10 * np.abs(m).max()
        assert int((np.abs(dec.values) < thresh).sum()) == dim - rank

    def test_returns_spectral_decomposition(self):
        dec = gram_svd(np.eye(3))
        assert isinstance(dec, SpectralDecomposition)
