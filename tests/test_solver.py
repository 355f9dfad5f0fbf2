"""End-to-end and unit coverage for the block eigensolver."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import gcgeig.solver
from gcgeig import LinearOperator, RunRecord, SolverConfig, gcg_solve
from gcgeig.cli import run_cli
from gcgeig.errors import InvalidMatrix, InvalidShape
from gcgeig.solver import _build_p, moving_memory_budget, resolve_block_sizes, select_shift

TRIDIAG = lambda n: scipy.sparse.diags(
    [-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr"
)


def random_sym(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (n, n))
    return (m + m.T) / 2.0


def random_spd(n, seed, shift=None):
    m = random_sym(n, seed)
    return m + (float(n) if shift is None else shift) * np.eye(n)


def test_diagonal_standard_problem():
    d = np.arange(1.0, 101.0)
    rep = gcg_solve(np.diag(d), config=SolverConfig(num_eigen=10, tol=1e-9, seed=4))
    assert rep.status == "converged"
    assert rep.num_converged == 10
    assert np.abs(rep.eigenvalues - np.arange(1.0, 11.0)).max() <= 1e-7
    assert rep.residuals.max() <= 1e-9
    # eigenvectors line up with coordinate axes
    for j in range(10):
        assert abs(rep.eigenvectors[j, j]) >= 1.0 - 1e-6


def test_dense_standard_matches_reference():
    a = random_sym(60, seed=10)
    rep = gcg_solve(a, config=SolverConfig(num_eigen=8, tol=1e-10, seed=1))
    ref = scipy.linalg.eigh(a, eigvals_only=True)[:8]
    assert rep.status == "converged"
    assert np.abs(rep.eigenvalues - ref).max() <= 1e-8


def test_dense_generalized_matches_reference():
    a = random_sym(50, seed=20)
    b = random_spd(50, seed=21)
    rep = gcg_solve(a, b, SolverConfig(num_eigen=6, tol=1e-10, seed=2))
    ref = scipy.linalg.eigh(a, b, eigvals_only=True)[:6]
    assert rep.status == "converged"
    assert np.abs(rep.eigenvalues - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())
    # returned block is B-orthonormal
    g = rep.eigenvectors.T @ b @ rep.eigenvectors
    assert np.abs(g - np.eye(6)).max() <= 1e-8


def test_diagonal_generalized_analytic():
    a = np.arange(1.0, 31.0)
    b = np.linspace(0.5, 2.0, 30)
    cfg = SolverConfig(num_eigen=5, tol=1e-10, seed=3)
    rep = gcg_solve(a, b, cfg)  # coerced to diagonal operators
    exact = np.sort(a / b)[:5]
    assert rep.status == "converged"
    assert np.abs(rep.eigenvalues - exact).max() <= 1e-8


def test_sparse_laplacian_analytic():
    n = 300
    rep = gcg_solve(TRIDIAG(n), config=SolverConfig(num_eigen=12, tol=1e-9, seed=5))
    exact = 2.0 - 2.0 * np.cos(np.arange(1, 13) * np.pi / (n + 1))
    assert rep.status == "converged"
    assert np.abs(rep.eigenvalues - exact).max() <= 1e-8


def test_shift_modes_agree_on_values():
    a = TRIDIAG(150)
    r_dyn = gcg_solve(a, config=SolverConfig(num_eigen=6, seed=6, shift_mode="dynamic"))
    r_non = gcg_solve(a, config=SolverConfig(num_eigen=6, seed=6, shift_mode="none"))
    assert r_dyn.status == r_non.status == "converged"
    assert np.abs(r_dyn.eigenvalues - r_non.eigenvalues).max() <= 1e-7
    # dynamic mode actually used a nonzero damping shift at some point
    assert any(h.theta > 0 for h in r_dyn.history)
    assert all(h.theta == 0 for h in r_non.history)


def test_moving_window_matches_plain_run():
    a = TRIDIAG(200)
    plain = gcg_solve(a, config=SolverConfig(num_eigen=30, block_size=8, seed=7))
    moving = gcg_solve(
        a, config=SolverConfig(num_eigen=30, block_size=8, seed=7, moving=True)
    )
    assert plain.status == moving.status == "converged"
    assert np.abs(plain.eigenvalues - moving.eigenvalues).max() <= 1e-7
    assert moving.max_projection_dim <= 5 * 8
    assert moving.residuals.max() <= 1e-7


@pytest.mark.parametrize(
    "n, ne, bs",
    [
        (30, 25, None), (9, 7, None), (12, 12, None), (45, 40, None), (30, 30, 2),
        (22, 22, 2), (31, 29, 2), (39, 39, 2),
    ],
)
def test_moving_window_at_the_end_of_the_spectrum(n, ne, bs):
    # the store, X and P fill the whole space before num_eigen pairs are
    # found; a W past that dimension is rounding noise, not a direction, and
    # the last pairs need the whole basis projected afresh to pass tol
    rep = gcg_solve(
        np.diag(np.arange(1.0, n + 1)),
        config=SolverConfig(num_eigen=ne, block_size=bs, moving=True),
    )
    assert rep.status == "converged"
    assert np.abs(rep.eigenvalues - np.arange(1.0, ne + 1)).max() <= 1e-8


def test_moving_generalized_window_at_the_end_of_the_spectrum():
    # stalled with 28 of 30 pairs while the store capped the last residuals
    # just above tol
    n = 31
    rng = np.random.default_rng(31)
    m = rng.standard_normal((n, n))
    a = (m + m.T) / 2.0
    g = rng.standard_normal((n, n))
    b = g @ g.T / n + np.eye(n)
    rep = gcg_solve(a, b, SolverConfig(num_eigen=30, moving=True, seed=1))
    ref = scipy.linalg.eigh(a, b, eigvals_only=True)[:30]
    assert rep.status == "converged"
    assert rep.eigenvalues.shape == (30,)
    assert np.abs(rep.eigenvalues - ref).max() <= 1e-8 * max(1.0, np.abs(ref).max())


def test_phases_call_the_kernels_through_module_names(monkeypatch):
    # perfbench/tracing.py swaps these names in gcgeig.solver; a phase
    # that moves out of the module or binds one early escapes it
    names = (
        "block_cg", "orth_against", "recursive_orth_svd", "sym_eig_full",
        "gram_svd", "mv_inner_prod",
    )
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(gcgeig.solver, name, counting(name, getattr(gcgeig.solver, name)))
    rep = gcg_solve(
        TRIDIAG(200), config=SolverConfig(num_eigen=30, block_size=8, moving=True)
    )
    assert rep.status == "converged"
    assert all(counts[name] > 0 for name in names), counts


def test_max_iterations_reported_honestly():
    rep = gcg_solve(
        np.diag(np.arange(1.0, 40.0)),
        config=SolverConfig(num_eigen=5, tol=1e-12, max_gcg_iters=2, seed=8),
    )
    assert rep.status == "max_iterations"
    assert rep.iterations == 2
    assert len(rep.history) == 2


def test_stagnation_is_flagged_not_fatal():
    # tol is unreachable, so nothing ever locks; block_size covers all three
    # columns so each keeps receiving refinement directions until they floor
    cfg = SolverConfig(
        num_eigen=3, tol=1e-30, block_size=3, max_gcg_iters=60,
        stall_window=5, seed=9,
    )
    rep = gcg_solve(np.diag(np.arange(1.0, 21.0)), config=cfg)
    assert rep.status == "max_iterations"
    assert rep.stagnated
    # the Ritz data is still returned and is actually accurate
    assert np.abs(rep.eigenvalues - [1.0, 2.0, 3.0]).max() <= 1e-8


def test_argument_validation():
    a = np.diag(np.arange(1.0, 11.0))
    with pytest.raises(InvalidShape):
        gcg_solve(a, config=SolverConfig(num_eigen=0))
    with pytest.raises(InvalidShape):
        gcg_solve(a, config=SolverConfig(num_eigen=11))
    with pytest.raises(InvalidShape):
        gcg_solve(a, np.ones(7), SolverConfig(num_eigen=2))
    with pytest.raises(InvalidShape):
        gcg_solve(a, config=SolverConfig(num_eigen=2, shift_mode="bogus"))
    with pytest.raises(InvalidShape):
        gcg_solve(a, config=SolverConfig(num_eigen=2, max_gcg_iters=0))
    for bs in (0, -2):
        with pytest.raises(InvalidShape):
            gcg_solve(a, config=SolverConfig(num_eigen=2, block_size=bs))


def test_history_bookkeeping():
    rep = gcg_solve(
        np.diag(np.arange(1.0, 41.0)), config=SolverConfig(num_eigen=6, seed=11)
    )
    iters = [h.iteration for h in rep.history]
    assert iters == list(range(1, len(iters) + 1))
    conv = [h.num_converged for h in rep.history]
    assert all(b >= a for a, b in zip(conv, conv[1:]))
    for h in rep.history:
        assert set(h.timings) == {"t_step2", "t_step3", "t_step4", "t_step5", "t_step6"}
        assert h.basis_size >= 1
    assert rep.total_reductions >= sum(h.orth_reductions for h in rep.history)


def test_deterministic_mode_is_bitwise_repeatable():
    # no option: two solves with the same seed agree bit for bit
    a = TRIDIAG(120)
    cfg = lambda: SolverConfig(num_eigen=5, seed=13)
    r1 = gcg_solve(a, config=cfg())
    r2 = gcg_solve(a, config=cfg())
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)
    assert np.array_equal(r1.residuals, r2.residuals)
    assert r1.iterations == r2.iterations


def test_instrumentation_defects_are_tiny():
    a = TRIDIAG(100)
    b = scipy.sparse.diags(
        [np.ones(99), 4.0 * np.ones(100), np.ones(99)], [-1, 0, 1], format="csr"
    )
    cfg = SolverConfig(
        num_eigen=6, seed=14, instrument_orth=True, cross_check_abar=True
    )
    rep = gcg_solve(a, b, cfg)
    assert rep.status == "converged"
    defects = [h.basis_defect for h in rep.history if h.basis_defect is not None]
    cross = [h.abar_defect for h in rep.history if h.abar_defect is not None]
    assert defects and max(defects) <= 1e-9
    assert cross and max(cross) <= 1e-10


def test_projection_dim_respects_configured_sizes():
    # defaults: block 2 = ceil(8/5), size_x = 8 + 3*2 = 14, basis <= 18
    rep = gcg_solve(
        np.diag(np.arange(1.0, 31.0)), config=SolverConfig(num_eigen=8, seed=15)
    )
    assert rep.max_projection_dim <= 14 + 2 * 2


def test_select_shift_rules():
    lam = np.array([0.5, 1.5, 2.5])
    assert select_shift("none", lam, 2) == 0.0
    assert select_shift("dynamic", lam, 0) == 0.0
    assert select_shift("dynamic", lam, 2) == 1.5
    assert select_shift("dynamic", lam, 1, [np.array([3.0, 4.0])]) == 4.0
    with pytest.raises(InvalidShape):
        select_shift("wat", lam, 0)


def test_momentum_block_empty_on_square_coefficients():
    rng = np.random.default_rng(16)
    q = np.linalg.qr(rng.uniform(-1, 1, (6, 6)))[0]
    assert _build_p(q, 6, 0, 2, 1e-10) is None


def test_momentum_block_is_orthonormal_and_deflated():
    rng = np.random.default_rng(17)
    q = np.linalg.qr(rng.uniform(-1, 1, (9, 6)))[0]  # tall: 3 extra rows
    phat = _build_p(q, 6, 1, 2, 1e-10)
    assert phat.shape == (9, 2)
    assert np.abs(phat.T @ phat - np.eye(2)).max() <= 1e-12
    assert np.abs(q.T @ phat).max() <= 1e-12


def test_moving_memory_budget_value():
    assert moving_memory_budget(600, 200) == 2_131_000


def test_report_metadata():
    rep = gcg_solve(
        np.diag(np.arange(1.0, 16.0)), config=SolverConfig(num_eigen=3, seed=18)
    )
    assert RunRecord.from_run(rep, {}).backend == "numpy"
    assert rep.eigenvectors.shape == (15, 3)
    assert rep.eigenvalues.shape == (3,)
    assert rep.residuals.shape == (3,)


def test_indefinite_b_raises_invalid_matrix():
    """A symmetric indefinite B is reported as such, not as a dependent
    starting block."""
    rng = np.random.default_rng(11)
    m = rng.standard_normal((50, 50))
    b = (m + m.T) / 2.0
    a = np.diag(np.arange(1.0, 51.0))
    with pytest.raises(InvalidMatrix, match="B is not positive definite"):
        gcg_solve(a, b, SolverConfig(num_eigen=3))


# (n, num_eigen, block_size, size_x, moving) -> resolved (block_size, size_x)
_SIZE_EDGES = {
    "ne-eq-n": ((10, 10, None, None, False), (2, 10)),
    "ne-eq-n-moving": ((10, 10, None, None, True), (2, 6)),
    "bs-gt-n": ((10, 3, 50, None, False), (10, 10)),
    "bs-gt-n-moving": ((10, 3, 50, None, True), (10, 10)),
    "sx-lt-ne": ((40, 11, None, 2, False), (3, 11)),
    "sx-lt-ne-moving": ((40, 11, None, 2, True), (3, 9)),   # moving ignores size_x
    "defaults": ((100, 12, None, None, False), (3, 21)),
}


@pytest.mark.parametrize("case, expect", _SIZE_EDGES.values(), ids=_SIZE_EDGES.keys())
def test_block_sizes_resolve_at_the_edges(monkeypatch, capsys, case, expect):
    """resolve_block_sizes, the sizes the solver works with and the CLI's
    recorded config agree with the pinned values; the first block the solver
    allocates is sx + 2*bs wide and its first projection spans sx columns."""
    n, ne, bs, sx, moving = case
    widths = []
    real_new = gcgeig.solver.mv_new

    def spy(dim, cols):
        widths.append(cols)
        return real_new(dim, cols)

    monkeypatch.setattr(gcgeig.solver, "mv_new", spy)
    cfg = SolverConfig(num_eigen=ne, block_size=bs, size_x=sx, moving=moving, seed=1)
    assert resolve_block_sizes(cfg, n) == expect
    rep = gcg_solve(np.diag(np.arange(1.0, n + 1.0)), config=cfg)
    assert rep.history[0].basis_size == expect[1]
    assert widths[0] == expect[1] + 2 * expect[0]
    if sx is None:
        argv = ["--builtin", "diag-range", "--n", str(n), "--num-eigen", str(ne)]
        argv += [] if bs is None else ["--block-size", str(bs)]
        argv += ["--moving", "on" if moving else "off"]
        run_cli(argv)
        record = json.loads(capsys.readouterr().out)
        assert (record["config"]["block_size"], record["config"]["size_x"]) == expect


def test_linear_operator_subclass_is_solved():
    """The extension path the README documents: subclass LinearOperator,
    pass the dimension to its constructor and implement apply(x, out=None)."""
    class Diag(LinearOperator):
        def __init__(self, d):
            super().__init__(d.size)
            self.d = d

        def apply(self, x, out=None):
            y = self.d[:, None] * x
            if out is None:
                return y
            out[...] = y
            return out

    rep = gcg_solve(Diag(np.arange(1.0, 51.0)), config=SolverConfig(num_eigen=3, seed=2))
    assert rep.status == "converged"
    np.testing.assert_allclose(rep.eigenvalues, [1.0, 2.0, 3.0], rtol=0, atol=1e-8)
    assert rep.residuals.max() < 1e-8
