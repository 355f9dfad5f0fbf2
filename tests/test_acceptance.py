"""Acceptance gate: end-to-end checks with analytic/brute-force oracles.

Each test prints one PASS/FAIL line (visible even under capture) so the
whole gate reads as a checklist.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse

import gcgeig.orth
from gcgeig import (
    DenseOperator,
    ShiftedOperator,
    SolverConfig,
    gcg_solve,
    generate_builtin,
    moving_memory_budget,
    recursive_orth_svd,
)
from gcgeig.cg import block_cg

from conftest import block_mgs, measure_projections


def _verdict(capsys, num, name, ok, detail):
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        print(f"[acceptance {num:02d}] {name:<24} {tag}  ({detail})")
    assert ok, f"acceptance {num:02d} {name}: {detail}"


def _laplacian(n):
    return scipy.sparse.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=[-1, 0, 1],
        format="csr",
    )


# ---------------------------------------------------------------------------
# shared fixture suite: converged runs with orthogonality instrumentation


def _dense_of(op):
    return op.tocsr().toarray()


def _suite():
    """(label, A, B, report, tol, basis defects) for a spread of converged
    problems; the defects are max|V'BV - I| before each projection."""
    runs = []

    a, _ = generate_builtin("laplacian1d", 300)
    with measure_projections() as (defects, _):
        rep = gcg_solve(a, config=SolverConfig(num_eigen=10, tol=1e-8, seed=0))
    runs.append(("laplacian", _dense_of(a), None, rep, 1e-8, defects))

    a, b = generate_builtin("fem1d-p1", 200)
    with measure_projections(b) as (defects, _):
        rep = gcg_solve(a, b, config=SolverConfig(num_eigen=8, tol=1e-8, seed=1))
    runs.append(("fem-pair", _dense_of(a), _dense_of(b), rep, 1e-8, defects))

    a, _ = generate_builtin("clustered-random", 256, density=0.02, seed=4)
    with measure_projections() as (defects, _):
        rep = gcg_solve(a, config=SolverConfig(num_eigen=12, tol=1e-8, seed=2))
    runs.append(("clustered", _dense_of(a), None, rep, 1e-8, defects))

    rng = np.random.default_rng(7)
    m = rng.standard_normal((60, 60))
    sym = np.asfortranarray((m + m.T) / 2.0)
    with measure_projections() as (defects, _):
        rep = gcg_solve(
            sym, config=SolverConfig(num_eigen=8, tol=1e-8, seed=3, max_gcg_iters=300)
        )
    runs.append(("indefinite", np.asarray(sym), None, rep, 1e-8, defects))

    a = _laplacian(400)
    with measure_projections() as (defects, _):
        rep = gcg_solve(
            a,
            config=SolverConfig(
                num_eigen=40, block_size=8, tol=1e-8, seed=5, moving=True
            ),
        )
    runs.append(("moving", a.toarray(), None, rep, 1e-8, defects))

    for label, _, _, rep, _, _ in runs:
        assert rep.status == "converged", f"fixture {label} did not converge"
    return runs


@pytest.fixture(scope="module")
def suite():
    return _suite()


# ---------------------------------------------------------------------------


def test_acceptance_01_analytic_spectrum(capsys):
    n, ne = 1000, 50
    t0 = time.perf_counter()
    rep = gcg_solve(_laplacian(n), config=SolverConfig(num_eigen=ne, tol=1e-8, seed=0))
    dt = time.perf_counter() - t0
    k = np.arange(1, ne + 1)
    ref = 2.0 - 2.0 * np.cos(k * np.pi / (n + 1))
    err = float(np.abs(rep.eigenvalues - ref).max())
    ok = rep.status == "converged" and err <= 1e-7 and dt < 30.0
    _verdict(capsys, 1, "analytic-spectrum", ok, f"max err {err:.2e}, {dt:.2f} s")


def test_acceptance_02_generalized_oracle(capsys):
    n, ne = 500, 20
    a, b = generate_builtin("fem1d-p1", n)
    da, db = _dense_of(a), _dense_of(b)
    t0 = time.perf_counter()
    rep = gcg_solve(a, b, config=SolverConfig(num_eigen=ne, tol=1e-8, seed=0))
    dt = time.perf_counter() - t0
    w, v = np.linalg.eigh(db)
    ihalf = (v / np.sqrt(w)) @ v.T
    oracle = np.linalg.eigvalsh(ihalf @ da @ ihalf)[:ne]
    rel = float(np.abs((rep.eigenvalues - oracle) / oracle).max())
    ok = rep.status == "converged" and rel <= 1e-6 and dt < 60.0
    _verdict(capsys, 2, "generalized-oracle", ok, f"rel err {rel:.2e}, {dt:.2f} s")


def test_acceptance_03_residual_criterion(capsys, suite):
    worst, worst_label = 0.0, ""
    for label, da, db, rep, tol, _ in suite:
        x = np.asarray(rep.eigenvectors)
        lam = np.asarray(rep.eigenvalues)
        ax = da @ x
        if db is None:
            num = np.linalg.norm(ax - x * lam, axis=0)
            den = np.linalg.norm(x, axis=0)
            rel = num / den
        else:
            bx = db @ x
            num = np.linalg.norm(ax - bx * lam, axis=0)
            den = lam * np.sqrt(np.einsum("ij,ij->j", x, bx))
            rel = num / den
        margin = float((rel / tol).max())
        if margin > worst:
            worst, worst_label = margin, label
    ok = worst <= 1.0
    _verdict(
        capsys, 3, "residual-criterion", ok,
        f"worst residual/tol {worst:.3f} ({worst_label})",
    )


def test_acceptance_04_orthogonality_suite(capsys, suite):
    worst, worst_label, checks = 0.0, "", 0
    for label, _, _, _, _, defects in suite:
        checks += len(defects)
        d = max(defects)
        if d > worst:
            worst, worst_label = d, label
    ok = worst <= 1e-9 and checks > 0
    _verdict(
        capsys, 4, "orthogonality-suite", ok,
        f"max |V'BV - I| {worst:.2e} over {checks} iterations ({worst_label})",
    )


def test_acceptance_05_reduction_counts(capsys, monkeypatch):
    rng = np.random.default_rng(0)
    x = np.asfortranarray(rng.standard_normal((256, 32)))
    blocked = block_mgs(x, 2)
    x2 = np.asfortranarray(rng.standard_normal((256, 32)))
    # an unattainable Gram defect makes every leaf run its full three passes
    monkeypatch.setattr(gcgeig.orth, "_REORTH_TOL", 1e-15)
    recursive = recursive_orth_svd(x2)
    m, b = 32, 2
    ok = blocked == m + m // b - 1 and recursive.reduction_count == m // 4 - 1
    _verdict(
        capsys, 5, "reduction-counts", ok,
        f"blocked {blocked} (want {m + m // b - 1}), "
        f"recursive {recursive.reduction_count} (want {m // 4 - 1})",
    )


def test_acceptance_06_shift_rate_oracle(capsys):
    lam2, lam3 = 2.0, 4.0
    a = np.diag([1.0, lam2, lam3])
    a2, a3 = 0.6, 0.8
    x0 = np.zeros((3, 1), order="F")
    x0[1, 0], x0[2, 0] = a2, a3
    lam_t = float(np.vdot(x0, a @ x0)) / float(np.vdot(x0, x0))
    worst = 0.0
    for theta in (0.0, 1.0):
        op = ShiftedOperator(DenseOperator(a), None, theta)
        rhs = np.asfortranarray((lam_t - theta) * x0)
        x1, _ = block_cg(op, rhs, x0=x0, max_iters=1, rel_tol=0.0)
        got = (x1[2, 0] / x1[1, 0]) / (a3 / a2)
        want = (lam2 - theta) / (lam3 - theta)
        worst = max(worst, abs(got - want))
        # the closed-form vector after one step, up to its overall scale
        scale = (a2**2 + a3**2) / (a3**2 * (lam2 - theta) + a2**2 * (lam3 - theta))
        closed = scale * np.array([0.0, (lam3 - theta) * a2, (lam2 - theta) * a3])
        worst = max(worst, float(np.abs(x1[:, 0] - closed).max()))
    ok = worst <= 1e-10
    _verdict(capsys, 6, "shift-rate-oracle", ok, f"max deviation {worst:.2e}")


def test_acceptance_07_structured_projection(capsys):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 61))
        m = rng.standard_normal((n, n))
        sym = np.asfortranarray((m + m.T) / 2.0)
        cfg = SolverConfig(num_eigen=3, tol=1e-6, seed=seed, max_gcg_iters=6)
        with measure_projections() as (_, defects):
            gcg_solve(sym, config=cfg)
        worst = max(worst, max(defects))
    ok = worst <= 1e-10
    _verdict(
        capsys, 7, "structured-projection", ok,
        f"max |structured - naive| {worst:.2e} over 100 instances",
    )


def test_acceptance_08_moving_mechanism(capsys):
    a = _laplacian(1000)
    ne, bs = 100, 20
    on = gcg_solve(
        a, config=SolverConfig(num_eigen=ne, block_size=bs, tol=1e-8, seed=0, moving=True)
    )
    off = gcg_solve(
        a, config=SolverConfig(num_eigen=ne, block_size=bs, tol=1e-8, seed=0)
    )
    agree = float(np.abs(on.eigenvalues - off.eigenvalues).max())
    budget = moving_memory_budget(600, 200)
    ok = (
        on.status == "converged"
        and off.status == "converged"
        and agree <= 1e-7
        and on.max_projection_dim <= 5 * bs
        and budget == 2_131_000
    )
    _verdict(
        capsys, 8, "moving-mechanism", ok,
        f"agree {agree:.2e}, proj dim {on.max_projection_dim} <= {5 * bs}, "
        f"budget {budget}",
    )


def test_acceptance_09_dynamic_shift_property(capsys):
    wins, pairs = 0, []
    for seed in range(20):
        a, _ = generate_builtin("clustered-random", 2000, density=0.005, seed=seed)
        iters = {}
        for mode in ("dynamic", "none"):
            rep = gcg_solve(
                a,
                config=SolverConfig(
                    num_eigen=40, tol=1e-8, seed=1, shift_mode=mode, max_gcg_iters=500
                ),
            )
            iters[mode] = rep.iterations if rep.status == "converged" else 10**6
        wins += iters["dynamic"] <= iters["none"]
        pairs.append((iters["dynamic"], iters["none"]))
    ok = wins >= 18
    med_d = sorted(p[0] for p in pairs)[10]
    med_n = sorted(p[1] for p in pairs)[10]
    _verdict(
        capsys, 9, "dynamic-shift-property", ok,
        f"{wins}/20 wins, median iterations {med_d} vs {med_n}",
    )


def test_acceptance_10_linear_scaling(capsys):
    a, _ = generate_builtin("clustered-random", 2000, density=0.005, seed=0)
    nes = [10, 20, 40, 80]
    times = []
    for ne in nes:
        # the fastest of three solves in this process's CPU time, so neither
        # a stall of the host nor other processes' load bends the fit
        best = math.inf
        for _ in range(3):
            t0 = time.process_time()
            rep = gcg_solve(a, config=SolverConfig(num_eigen=ne, tol=1e-8, seed=1))
            best = min(best, time.process_time() - t0)
            assert rep.status == "converged", f"ne={ne} did not converge"
        times.append(best)
    x = np.array(nes, dtype=float)
    y = np.array(times)
    design = np.vstack([x, np.ones(len(x))]).T
    coef, res, *_ = np.linalg.lstsq(design, y, rcond=None)
    ss_res = float(res[0]) if res.size else float(((y - design @ coef) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    ok = r2 >= 0.9
    times_s = ", ".join(f"{t:.2f}" for t in times)
    _verdict(capsys, 10, "linear-scaling", ok, f"R^2 {r2:.4f}; times [{times_s}] s")


def test_acceptance_11_determinism(capsys, tmp_path):
    args = [
        sys.executable, "-m", "gcgeig",
        "--builtin", "clustered-random", "--n", "128", "--gen-seed", "3",
        "--num-eigen", "8", "--seed", "7", "--deterministic",
    ]
    # the CLI runs from the package these tests import, installed or not
    src = os.path.dirname(os.path.dirname(gcgeig.orth.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    outs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        proc = subprocess.run(
            args + ["--out", str(path)], capture_output=True, text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    record = json.loads(outs[0])
    detail = (
        f"{len(outs[0])} bytes, identical={ok}, "
        f"wall_time={record['wall_time']}"
    )
    _verdict(capsys, 11, "determinism", ok and record["wall_time"] == 0.0, detail)
