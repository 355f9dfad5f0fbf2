"""End-to-end and unit coverage for the block eigensolver."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.stats

import gcgeig.errors
import gcgeig.operators
import gcgeig.solver
from gcgeig import LinearOperator, RunRecord, SolverConfig, gcg_solve, generate_builtin
from gcgeig.cli import run_cli
from gcgeig.dense import sym_eig_full
from gcgeig.errors import InvalidMatrix, InvalidShape
from gcgeig.solver import _build_p, moving_memory_budget, resolve_block_sizes, select_shift

from conftest import measure_projections, neumann_tridiag, tridiag

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
    # the pairs are copied out of the basis array, in ascending order
    assert moving.eigenvalues.flags.owndata and moving.eigenvectors.flags.owndata
    assert np.all(np.diff(moving.eigenvalues) >= 0)


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
    # that moves out of the module or binds one early escapes it.  It also
    # swaps gram_svd and sym_eig_range, which the solver no longer calls, so
    # they must still resolve there
    assert callable(gcgeig.solver.gram_svd) and callable(gcgeig.solver.sym_eig_range)
    names = (
        "block_cg", "orth_against", "recursive_orth_svd", "sym_eig_full", "mv_inner_prod",
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
        num_eigen=3, tol=1e-30, block_size=3, max_gcg_iters=60, seed=9,
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
    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidShape, match="tol must be positive"):
            gcg_solve(a, config=SolverConfig(num_eigen=2, tol=tol))
    with pytest.raises(InvalidShape, match="cg_max_iters"):
        gcg_solve(a, config=SolverConfig(num_eigen=2, cg_max_iters=-1))
    for rel in (-0.5, float("nan")):
        with pytest.raises(InvalidShape, match="cg_rel_tol"):
            gcg_solve(a, config=SolverConfig(num_eigen=2, cg_rel_tol=rel))
    with pytest.raises(InvalidShape, match="seed must be at least 0"):
        gcg_solve(a, config=SolverConfig(num_eigen=2, seed=-1))


def test_unknown_shift_mode_rejected_before_any_apply():
    class Counting(LinearOperator):
        applies = 0

        def apply(self, x, out=None):
            Counting.applies += 1
            if out is None:
                return x.copy()
            out[...] = x
            return out

    with pytest.raises(InvalidShape, match="unknown shift mode 'bogus'"):
        gcg_solve(Counting(10), config=SolverConfig(num_eigen=2, shift_mode="bogus"))
    assert Counting.applies == 0


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
    with measure_projections(b) as (defects, cross):
        rep = gcg_solve(a, b, SolverConfig(num_eigen=6, seed=14))
    assert rep.status == "converged"
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
    assert select_shift("dynamic", lam, 3) == 2.5
    # nothing locked and the lowest Ritz value negative: 10% below it
    assert select_shift("dynamic", np.array([-2.0, 1.0]), 0) == -2.2
    assert select_shift("none", np.array([-2.0, 1.0]), 0) == 0.0
    # a floor under the spectrum replaces 0 only while nothing is locked
    # and the lowest Ritz value is not negative
    assert select_shift("dynamic", lam, 0, floor=0.25) == 0.25
    assert select_shift("dynamic", np.array([0.0, 1.0]), 0, floor=0.25) == 0.25
    assert select_shift("dynamic", lam, 2, floor=0.25) == 1.5
    assert select_shift("dynamic", lam, 3, floor=0.25) == 2.5
    assert select_shift("dynamic", np.array([-2.0, 1.0]), 0, floor=0.25) == -2.2
    assert select_shift("none", lam, 0, floor=0.25) == 0.0
    assert select_shift("none", lam, 2, floor=0.25) == 0.0
    with pytest.raises(InvalidShape):
        select_shift("wat", lam, 0)


def test_indefinite_lowest_pair_converges_before_anything_locks():
    """With a zero shift the damped step amplifies the eigenvalues nearest
    0; a shift below the lowest negative Ritz value aims it at the bottom
    of the spectrum (110 iterations at a zero shift)."""
    n = 28
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    a = (m + m.T) / 2.0
    rep = gcg_solve(a, config=SolverConfig(num_eigen=1, seed=n, max_gcg_iters=30))
    assert rep.status == "converged"
    ref = scipy.linalg.eigh(a, eigvals_only=True)[0]
    assert abs(rep.eigenvalues[0] - ref) <= 1e-8 * max(1.0, abs(ref))


def _spectrum_with_vectors(y, seed):
    """The symmetric matrix with eigenvectors ``y``, in order, for random
    ascending eigenvalues."""
    vals = np.sort(np.random.default_rng(seed).uniform(-2, 3, y.shape[0]))
    abar = (y * vals) @ y.T
    return (abar + abar.T) / 2.0


def _check_momentum_block(abar, d, start, width):
    full = sym_eig_full(abar)
    y = full.vectors
    phat, coupling = _build_p(full, d, start, width)
    k = phat.shape[1]
    assert np.abs(phat.T @ phat - np.eye(k)).max() <= 1e-14
    assert np.abs(y[:, :d].T @ phat).max() <= 1e-14
    assert np.abs(coupling - phat.T @ abar @ phat).max() <= 1e-12 * np.linalg.norm(abar, 2)
    # the definition: the group with the X rows zeroed, minus its projection
    # on the Ritz block
    pt = y[:, start : start + width].copy()
    pt[:d] = 0.0
    pt -= y[:, :d] @ (y[:, :d].T @ pt)
    assert np.linalg.matrix_rank(pt) == k
    assert scipy.linalg.subspace_angles(pt, phat).max() <= 1e-10
    return full, phat


def test_momentum_block_empty_on_square_coefficients():
    abar = random_sym(6, 16)
    assert _build_p(sym_eig_full(abar), 6, 0, 2) is None
    # a group whose X rows have no part outside the Ritz block
    q = scipy.linalg.block_diag(scipy.stats.ortho_group.rvs(6, random_state=16), np.eye(3))
    assert _build_p(sym_eig_full(_spectrum_with_vectors(q, 16)), 6, 1, 2) is None


def test_momentum_block_is_orthonormal_and_deflated():
    _, phat = _check_momentum_block(random_sym(9, 17), 6, 1, 2)   # 3 extra rows
    assert phat.shape == (9, 2)


def test_momentum_block_keeps_an_ill_conditioned_group():
    # rotate two X columns into the complement by angles 0.3 and 3e-5, so the
    # group's coordinates outside the Ritz block have sigma_min/sigma_max
    # about 1e-4; a rotation of the X rows and of the others keeps them
    d, m, start = 6, 10, 2
    k = np.zeros((m, m))
    k[[start, start + 1], [d, d + 1]] = 0.3, 3e-5
    k -= k.T
    rows = scipy.linalg.block_diag(
        scipy.stats.ortho_group.rvs(d, random_state=3),
        scipy.stats.ortho_group.rvs(m - d, random_state=4),
    )
    abar = _spectrum_with_vectors(rows @ scipy.linalg.expm(k), 5)
    full, phat = _check_momentum_block(abar, d, start, 2)
    y = full.vectors
    sig = np.linalg.svd(y[:d, d:].T @ y[:d, start : start + 2], compute_uv=False)
    assert 1e-5 < sig[-1] / sig[0] < 1e-3
    assert phat.shape == (m, 2)


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


# (n, num_eigen, block_size, moving) -> resolved (block_size, size_x)
_SIZE_EDGES = {
    "ne-eq-n": ((10, 10, None, False), (2, 10)),
    "ne-eq-n-moving": ((10, 10, None, True), (2, 6)),
    "bs-gt-n": ((10, 3, 50, False), (10, 10)),
    "bs-gt-n-moving": ((10, 3, 50, True), (10, 10)),
    "defaults": ((100, 12, None, False), (3, 21)),
}


@pytest.mark.parametrize("case, expect", _SIZE_EDGES.values(), ids=_SIZE_EDGES.keys())
def test_block_sizes_resolve_at_the_edges(monkeypatch, capsys, case, expect):
    """resolve_block_sizes, the sizes the solver works with and the CLI's
    recorded config agree with the pinned values; the first block the solver
    allocates is ne + 4*bs wide for a moving window and sx + 2*bs otherwise,
    and its first projection spans sx columns."""
    n, ne, bs, moving = case
    widths = []
    real_new = gcgeig.solver.mv_new

    def spy(dim, cols):
        widths.append(cols)
        return real_new(dim, cols)

    monkeypatch.setattr(gcgeig.solver, "mv_new", spy)
    cfg = SolverConfig(num_eigen=ne, block_size=bs, moving=moving, seed=1)
    assert resolve_block_sizes(cfg, n) == expect
    rep = gcg_solve(np.diag(np.arange(1.0, n + 1.0)), config=cfg)
    assert rep.history[0].basis_size == expect[1]
    assert widths[0] == (ne + 4 * expect[0] if moving else expect[1] + 2 * expect[0])
    argv = ["--builtin", "diag-range", "--n", str(n), "--num-eigen", str(ne)]
    argv += [] if bs is None else ["--block-size", str(bs)]
    argv += ["--moving", "on" if moving else "off"]
    run_cli(argv)
    record = json.loads(capsys.readouterr().out)
    assert (record["config"]["block_size"], record["config"]["size_x"]) == expect


@pytest.mark.parametrize("extra", [0, 1, gcgeig.solver._CHUNK_COLS + 1])
def test_unstructured_projection_across_chunk_boundaries(monkeypatch, extra):
    """The projection of a basis that does not hold Ritz vectors applies A a
    chunk of columns at a time; across the chunk boundaries it matches the
    projection that applies A to the whole basis at once."""
    m = gcgeig.solver._CHUNK_COLS + extra
    a, _ = generate_builtin("clustered-random", 300, seed=3)
    basis = np.asfortranarray(np.random.default_rng(5).standard_normal((300, m)))
    win = gcgeig.solver._Window(basis, np.zeros(m), m)
    chunked = gcgeig.solver._project(win, a, basis)
    monkeypatch.setattr(gcgeig.solver, "_CHUNK_COLS", m)
    whole = gcgeig.solver._project(win, a, basis)
    np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-13 * np.abs(whole).max())
    assert np.array_equal(chunked, chunked.T)


def test_wide_solve_peaks_below_twice_its_basis_array():
    """A wide solve's traced peak stays below twice the basis array ``v``
    (n x (sx + 2*bs) doubles): X and P are rotated into ``v`` in place, and
    the projection and the convergence check hold at most one chunk of
    columns at a time.  This solve measures 1.83 times ``v``;
    with the first projection's three n-by-sx temporaries it was 3.4."""
    n, ne = 1500, 150
    a, _ = generate_builtin("clustered-random", n, seed=1)
    cfg = SolverConfig(num_eigen=ne, seed=1)
    bs, sx = resolve_block_sizes(cfg, n)
    v_bytes = n * (sx + 2 * bs) * 8
    tracemalloc.start()
    try:
        rep = gcg_solve(a, config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "converged"
    assert rep.max_projection_dim == sx + 2 * bs
    assert peak < 2.0 * v_bytes


def test_moving_solve_peaks_below_twice_its_basis_array():
    """The moving twin of the test above: the basis array ``v`` is n x (ne
    + 4*bs) doubles.  The frozen CG columns' best iterates are kept in the
    W slot of ``v``, not in a block of their own; this solve measures 1.92
    times ``v`` (2.03 with a separate n-by-bs block for them)."""
    n, ne = 1500, 150
    a, _ = generate_builtin("clustered-random", n, seed=1)
    cfg = SolverConfig(num_eigen=ne, seed=1, moving=True)
    bs, _ = resolve_block_sizes(cfg, n)
    v_bytes = n * (ne + 4 * bs) * 8
    tracemalloc.start()
    try:
        rep = gcg_solve(a, config=cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status == "converged"
    assert peak < 2.0 * v_bytes


def test_fem_cg_solve_freezes_no_cg_column():
    """On the benchmark's fem-cg problem no inner CG column meets a
    nonpositive curvature, so keeping the best iterate of frozen columns
    leaves this solve as it was."""
    a, b = generate_builtin("fem1d-p1", 3000, seed=1)
    rep = gcg_solve(a, b, SolverConfig(num_eigen=10, seed=1))
    assert rep.status == "converged"
    assert [r.cg_frozen for r in rep.history] == [0] * rep.iterations


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


def _recording_block_cg(monkeypatch):
    """Wrap the solver's block_cg; returns the list of preconditioners it is
    handed, one per call."""
    seen, inner = [], gcgeig.solver.block_cg

    def block_cg(*args, precond=None, **kwargs):
        seen.append(precond)
        return inner(*args, precond=precond, **kwargs)

    monkeypatch.setattr(gcgeig.solver, "block_cg", block_cg)
    return seen


def _recording_rhs_dtypes(monkeypatch):
    """Wrap the solver's block_cg; returns the list of the dtypes of the
    right-hand sides it is handed, one per call."""
    seen, inner = [], gcgeig.solver.block_cg

    def block_cg(op, rhs, *args, **kwargs):
        seen.append(rhs.dtype)
        return inner(op, rhs, *args, **kwargs)

    monkeypatch.setattr(gcgeig.solver, "block_cg", block_cg)
    return seen


def _assert_diagonal_scaling(seen, diag, dtype=np.float64):
    """Every preconditioner the solve handed CG is the one scaling by
    1/diag, built once, with 1/diag held in ``dtype``, the precision of the
    inner solve."""
    assert all(p is seen[0] for p in seen)
    r = np.asfortranarray(np.random.default_rng(0).standard_normal((diag.size, 3)), dtype=dtype)
    out = np.empty_like(r, order="F")
    seen[0](r, out)
    np.testing.assert_array_equal(out, r * (1.0 / diag).astype(dtype)[:, None])


def test_banded_fem_converges_with_the_band_factor(monkeypatch):
    """fem1d-p1 at n=20000: plain CG stops at 1000 iterations with 4 of 10
    pairs; preconditioned by A's band factor it converges in 23.  A is
    factored once per solve."""
    built = []
    band_solver = gcgeig.operators.CsrOperator.band_solver

    def counting(op):
        built.append(op)
        return band_solver(op)

    monkeypatch.setattr(gcgeig.operators.CsrOperator, "band_solver", counting)
    seen = _recording_block_cg(monkeypatch)
    n, ne = 20000, 10
    a, b = generate_builtin("fem1d-p1", n, seed=0)
    rep = gcg_solve(a, b, SolverConfig(num_eigen=ne, seed=1))
    assert rep.status == "converged" and rep.iterations <= 40
    assert built == [a]
    assert all(p is not None for p in seen)
    h = 1.0 / (n + 1)
    t = np.arange(1, ne + 1) * np.pi * h
    ref = (6.0 / h**2) * 2.0 * np.sin(t / 2.0) ** 2 / (2.0 + np.cos(t))
    x = rep.eigenvectors
    rq = np.einsum("ij,ij->j", x, a.apply(x)) / np.einsum("ij,ij->j", x, b.apply(x))
    np.testing.assert_allclose(rq, ref, rtol=1e-12, atol=0)
    # the reported values are these quotients; the structured projection's
    # carried Ritz values drifted from them by 1.8e-8 at this size
    np.testing.assert_allclose(rep.eigenvalues, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("moving", [False, True])
def test_band_factor_projects_out_the_locked_pairs(moving):
    """laplacian1d n=3000, ne=20: plain CG takes 81 iterations wide.  The
    shifted operator amplifies the locked pairs, so without the projection
    in the preconditioner the solve stalled at 1000 iterations with 8 of 20
    pairs."""
    n, ne = 3000, 20
    a, _ = generate_builtin("laplacian1d", n, seed=0)
    rep = gcg_solve(a, config=SolverConfig(num_eigen=ne, seed=1, moving=moving))
    assert rep.status == "converged" and rep.iterations <= 40
    ref = 2.0 - 2.0 * np.cos(np.arange(1, ne + 1) * np.pi / (n + 1))
    np.testing.assert_allclose(rep.eigenvalues, ref, rtol=0, atol=1e-10)


def _nonpositive_diagonal(n):
    """tridiag(-1, 2, -1) with -1 in the middle of the diagonal: indefinite,
    and no diagonal scaling."""
    m = tridiag(n, -1.0, 2.0, -1.0).tolil()
    m[n // 2, n // 2] = -1.0
    return m.tocsr()


@pytest.mark.parametrize("moving", [False, True])
@pytest.mark.parametrize(
    "make,scaled",
    [
        (lambda n: tridiag(n, -1.0, 1.5, -1.0), True),
        (neumann_tridiag, True),
        (_nonpositive_diagonal, False),
        (lambda n: TRIDIAG(n).toarray(), False),
        (lambda n: np.linspace(-1.0, 3.0, n), False),
    ],
    ids=["indefinite", "singular-neumann", "nonpositive-diagonal", "dense", "diagonal-array"],
)
def test_plain_cg_where_no_band_factor_exists(monkeypatch, make, scaled, moving):
    """An indefinite or singular banded A has no band factor, but its
    diagonal is positive, so CG is scaled by 1/diag(A).  A CSR matrix with a
    nonpositive diagonal entry, any dense A and a diagonal given as a 1-D
    array keep plain CG.  All converge to eigh's values."""
    seen = _recording_block_cg(monkeypatch)
    n, ne = 200, 10
    a = make(n)
    rep = gcg_solve(a, config=SolverConfig(num_eigen=ne, seed=1, moving=moving))
    assert seen
    if scaled:
        _assert_diagonal_scaling(seen, a.diagonal())
    else:
        assert all(p is None for p in seen)
    assert rep.status == "converged"
    dense = a.toarray() if scipy.sparse.issparse(a) else a if a.ndim == 2 else np.diag(a)
    ref = scipy.linalg.eigh(dense, eigvals_only=True)[:ne]
    np.testing.assert_allclose(rep.eigenvalues, ref, rtol=0, atol=1e-10)


def _fem2d(m):
    """The tensor product of fem1d-p1 of size m: A = K(x)M + M(x)K and
    B = M(x)M, n = m*m, half-bandwidth m + 1, so no band factor.  Its
    eigenvalues are the sums mu_i + mu_j of the 1-D ones, which repeat in
    pairs."""
    k1, m1 = generate_builtin("fem1d-p1", m, seed=0)
    k, mm = k1.tocsr(), m1.tocsr()
    a = (scipy.sparse.kron(k, mm) + scipy.sparse.kron(mm, k)).tocsr()
    b = scipy.sparse.kron(mm, mm).tocsr()
    h = 1.0 / (m + 1)
    t = np.arange(1, m + 1) * np.pi * h
    mu = (6.0 / h**2) * 2.0 * np.sin(t / 2.0) ** 2 / (2.0 + np.cos(t))
    return a, b, np.sort(np.add.outer(mu, mu).ravel())


@pytest.mark.parametrize("moving", [False, True])
def test_wide_band_generalized_problem_is_diagonally_scaled(monkeypatch, moving):
    """The 2-D fem1d-p1 tensor product at m=40, ne=20: CG is scaled by
    1/diag(A), and every copy of each paired eigenvalue comes back, in
    ascending order, to the closed form (2e-14 measured)."""
    seen = _recording_block_cg(monkeypatch)
    a, b, ref = _fem2d(40)
    ne = 20
    rep = gcg_solve(a, b, SolverConfig(num_eigen=ne, seed=1, moving=moving))
    assert rep.status == "converged"
    _assert_diagonal_scaling(seen, a.diagonal())
    np.testing.assert_allclose(rep.eigenvalues, ref[:ne], rtol=1e-12, atol=0)
    assert np.all(np.diff(rep.eigenvalues) >= 0.0)
    assert rep.residuals.max() < 1e-8


@pytest.mark.parametrize("moving,max_iters", [(False, 130), (True, 200)])
def test_diagonal_scaling_cuts_outer_iterations(moving, max_iters):
    """D^1/2 L D^1/2 with L the 2-D Laplacian on a 40 x 40 grid and D
    log-uniform in [1, 1e3], ne=20: plain CG took 169 iterations wide and
    310 moving; scaled by 1/diag(A), 110 and 119."""
    m, ne = 40, 20
    lap = tridiag(m, -1.0, 2.0, -1.0)
    eye = scipy.sparse.identity(m, format="csr")
    d = scipy.sparse.diags(np.sqrt(10.0 ** np.random.default_rng(0).uniform(0.0, 3.0, m * m)))
    a = (d @ (scipy.sparse.kron(lap, eye) + scipy.sparse.kron(eye, lap)) @ d).tocsr()
    rep = gcg_solve(a, config=SolverConfig(num_eigen=ne, seed=1, moving=moving))
    assert rep.status == "converged" and rep.iterations <= max_iters
    ref = scipy.linalg.eigh(a.toarray(), eigvals_only=True, subset_by_index=[0, ne - 1])
    np.testing.assert_allclose(rep.eigenvalues, ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("moving", [False, True])
def test_converged_pairs_come_back_in_ascending_order(moving):
    """R R' + 0.01 I with R sparse random (n=300, density 0.01): 0.01 is a
    26-fold eigenvalue.  The carried Ritz values came back out of order,
    with a copy of 0.01 missing (1.2e-4 from eigh's values); the reported
    values are now the vectors' Rayleigh quotients, sorted."""
    r = scipy.sparse.random(300, 300, density=0.01, random_state=2, format="csr")
    a = (r @ r.T + 0.01 * scipy.sparse.identity(300)).tocsr()
    ne = 20
    rep = gcg_solve(a, config=SolverConfig(num_eigen=ne, seed=1, moving=moving))
    assert rep.status == "converged"
    assert np.all(np.diff(rep.eigenvalues) >= 0.0)
    ref = scipy.linalg.eigh(a.toarray(), eigvals_only=True, subset_by_index=[0, ne - 1])
    np.testing.assert_allclose(rep.eigenvalues, ref, rtol=0, atol=1e-8)
    x = rep.eigenvectors
    rq = np.einsum("ij,ij->j", x, a @ x) / np.einsum("ij,ij->j", x, x)
    np.testing.assert_allclose(rep.eigenvalues, rq, rtol=1e-13, atol=0)


def test_moving_run_stopped_early_reports_fewer_pairs():
    """The report keeps the stored pairs and the window's X, at most
    num_eigen of them: a moving run stopped at max_gcg_iters before the
    window slid far enough reports fewer pairs than asked."""
    a, _ = generate_builtin("diag-range", 200, seed=0)
    rep = gcg_solve(a, config=SolverConfig(num_eigen=50, moving=True, max_gcg_iters=2))
    assert rep.status == "max_iterations"
    assert rep.eigenvalues.shape == (30,) and rep.eigenvectors.shape == (200, 30)
    assert rep.residuals.shape == (30,) and rep.num_converged <= 30


@pytest.mark.parametrize("moving,max_iters", [(False, 65), (True, 85)])
def test_gershgorin_floor_cuts_outer_iterations(moving, max_iters):
    """clustered-random n=1000, ne=8: the spectrum sits in [1, 4] and the
    Gershgorin lower end of A is 0.69.  With theta 0 until the first pair
    locked, seed 1 took 78 iterations wide and 96 moving; shifted to the
    Gershgorin floor from the first step, 54 and 71."""
    a, _ = generate_builtin("clustered-random", 1000, seed=3)
    rep = gcg_solve(a, config=SolverConfig(num_eigen=8, seed=1, moving=moving))
    assert rep.status == "converged" and rep.iterations <= max_iters
    floor = a.gershgorin()[0]
    assert floor > 0.0 and rep.history[0].theta == floor
    ref = scipy.linalg.eigh(a.tocsr().toarray(), eigvals_only=True, subset_by_index=[0, 7])
    assert floor <= ref[0]
    np.testing.assert_allclose(rep.eigenvalues, ref, rtol=1e-10, atol=0)


@pytest.mark.parametrize("moving", [False, True])
def test_floor_at_the_lowest_eigenvalue_of_a_diagonal(moving):
    """On a diagonal CSR matrix the Gershgorin floor is lambda_min itself,
    so A - theta*I is singular until the first pair locks.  The solve still
    converges to the closed form."""
    a, _ = generate_builtin("diag-range", 2000, seed=0)
    ne = 100
    rep = gcg_solve(a, config=SolverConfig(num_eigen=ne, seed=1, moving=moving))
    assert rep.history[0].theta == 1.0
    assert rep.status == "converged"
    np.testing.assert_allclose(rep.eigenvalues, np.arange(1.0, ne + 1.0), rtol=1e-10, atol=0)
    assert rep.residuals.max() < 1e-8


def test_single_precision_rule_reads_the_gershgorin_condition():
    """float32 needs CSR matrices whose Gershgorin intervals start above 0
    with ``kappa_G * 2**-24 <= cg_rel_tol / 100``: clustered-random (kappa_G
    about 5.9) passes at the default 0.01; diag-range n=2000 (kappa_G 2000)
    needs cg_rel_tol 0.012 or more; fem1d-p1 (lo_A = 0) never passes."""
    single = gcgeig.solver._single_precision
    a, _ = generate_builtin("clustered-random", 2000, seed=1)
    lo, hi = a.gershgorin()
    assert single(a, None, 0.01) == (hi, 1.0) and 5.0 < hi / lo < 7.0
    assert single(a, None, 0.0) is None
    d, _ = generate_builtin("diag-range", 2000, seed=0)
    assert single(d, None, 0.01) is None and single(d, None, 0.012) == (2000.0, 1.0)
    k, m = generate_builtin("fem1d-p1", 300, seed=0)
    assert single(k, m, 1.0) is None


@pytest.mark.parametrize("moving", [False, True])
@pytest.mark.parametrize("generalized", [False, True])
def test_clustered_random_solves_cg_in_float32(monkeypatch, moving, generalized):
    """clustered-random n=600, ne=40, alone or with a diagonal B whose
    entries lie in [1, 2]: every inner solve is float32, scaled by a
    float32 1/diag(A), and the pairs are eigh's to 1e-12."""
    pre = _recording_block_cg(monkeypatch)
    dtypes = _recording_rhs_dtypes(monkeypatch)
    a, _ = generate_builtin("clustered-random", 600, seed=2)
    b = None
    if generalized:
        b = scipy.sparse.diags(np.random.default_rng(0).uniform(1.0, 2.0, 600), format="csr")
    ne = 40
    rep = gcg_solve(a, b, SolverConfig(num_eigen=ne, seed=1, moving=moving))
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}
    _assert_diagonal_scaling(pre, a.diagonal(), np.float32)
    assert rep.status == "converged" and rep.residuals.max() < 1e-8
    ref = scipy.linalg.eigh(
        a.tocsr().toarray(), None if b is None else b.toarray(),
        eigvals_only=True, subset_by_index=[0, ne - 1],
    )
    np.testing.assert_allclose(rep.eigenvalues, ref, rtol=1e-12, atol=0)


class _Wrapped(LinearOperator):
    """A user operator over a CSR matrix: its entries stay hidden."""

    def __init__(self, sp):
        super().__init__(sp.shape[0])
        self.sp = sp

    def apply(self, x, out=None):
        y = self.sp @ x
        if out is None:
            return y
        out[...] = y
        return out


@pytest.mark.parametrize("kind", ["fem1d-p1", "laplacian1d", "dense", "diagonal", "operator"])
def test_inner_solve_stays_float64_without_a_proof(monkeypatch, kind):
    """fem1d-p1 has a band factor, laplacian1d's Gershgorin interval starts
    at 0, and a dense array, a diagonal array or a user LinearOperator has
    no CSR entries to bound, even where they hold clustered-random's
    matrix or a diagonal with kappa 2: every inner solve stays float64."""
    dtypes = _recording_rhs_dtypes(monkeypatch)
    n, ne, b = 300, 8, None
    sp = generate_builtin("clustered-random", n, seed=1)[0].tocsr()
    if kind in ("fem1d-p1", "laplacian1d"):
        a, b = generate_builtin(kind, n, seed=0)
    else:
        a = {
            "dense": lambda: sp.toarray(),
            "diagonal": lambda: np.linspace(1.0, 2.0, n),
            "operator": lambda: _Wrapped(sp),
        }[kind]()
    rep = gcg_solve(a, b, SolverConfig(num_eigen=ne, seed=1))
    assert rep.status == "converged"
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


@pytest.mark.parametrize("moving", [False, True])
def test_float32_solve_with_theta_on_an_eigenvalue(monkeypatch, moving):
    """diag-range n=300, ne=20 without its band factor runs CG in float32
    (kappa_G = 300), and its first theta, the Gershgorin floor, is
    lambda_min = 1 itself: A - theta*I is singular on e_1, and a float32
    curvature near it is rounding.  The curvature floor freezes such
    columns, and the pairs come back finite and within tol.  Without the
    floor the first damped step overflows."""
    monkeypatch.setattr(gcgeig.operators.CsrOperator, "band_solver", lambda self: None)
    dtypes = _recording_rhs_dtypes(monkeypatch)
    a, _ = generate_builtin("diag-range", 300, seed=0)
    ne = 20
    cfg = SolverConfig(num_eigen=ne, seed=1, moving=moving)
    rep = gcg_solve(a, config=cfg)
    assert set(dtypes) == {np.dtype(np.float32)}
    assert rep.history[0].theta == 1.0 and rep.history[0].cg_frozen > 0
    assert rep.status == "converged" and rep.residuals.max() < 1e-8
    assert np.isfinite(rep.eigenvectors).all()
    np.testing.assert_allclose(rep.eigenvalues, np.arange(1.0, ne + 1.0), rtol=1e-12, atol=0)

    monkeypatch.setattr(gcgeig.solver, "_U32", 0.0)   # admits, with no floor
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="overflow"):
            gcg_solve(a, config=cfg)


def test_frozen_zero_correction_is_not_refilled_randomly(monkeypatch):
    """Contract case n=21, ne=15, generalized, moving, seed 21: every CG
    column froze at its first sweep, so the correction W - X was 0 and W
    was refilled with random directions on 981 of 1000 iterations, which
    never converged.  A frozen column that would return the zero start
    returns its first preconditioned residual: the solve converges in 20
    iterations, and W never collapses into the basis."""
    collapsed, inner = [], gcgeig.solver.orth_against

    def orth_against(w, *args, **kwargs):
        try:
            return inner(w, *args, **kwargs)
        except gcgeig.errors.AllDependent:
            collapsed.append(w.shape[1])
            raise

    monkeypatch.setattr(gcgeig.solver, "orth_against", orth_against)
    n = 21
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    a = (m + m.T) / 2.0
    g = rng.standard_normal((n, n))
    b = g @ g.T / n + np.eye(n)
    rep = gcg_solve(a, b, SolverConfig(num_eigen=15, moving=True, seed=n))
    assert rep.status == "converged" and rep.iterations <= 40
    assert collapsed == []
    ref = scipy.linalg.eigh(a, b, eigvals_only=True)[:15]
    np.testing.assert_allclose(rep.eigenvalues, ref, rtol=0, atol=1e-8 * np.abs(ref).max())
