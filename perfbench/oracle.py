"""Checks a solver report against an independent reference.

The residuals are recomputed here from the generator's scipy matrices, with
the solver's stated test: ``|Ax - lam x| / |x| < tol`` for standard problems
and ``|Ax - lam Bx| / (lam |x|_B) < tol`` for generalized ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative eigenvalue error allowed against the reference.  The clusters of
# clustered-random are about 1e-6 apart relative to the eigenvalues, so a
# missed or duplicated eigenpair lands far above this.
EIG_RTOL = 1e-8
# Largest allowed entry of |X' B X - I|.
ORTH_TOL = 1e-10


@dataclass
class Verdict:
    reasons: list = field(default_factory=list)
    max_residual: float = float("nan")
    max_eig_rel_err: float = float("nan")
    orth_defect: float = float("nan")


def check(report, reference, a, b, tol):
    """Return a :class:`Verdict`; the report passes when ``reasons`` is empty."""
    v = Verdict()
    k = reference.shape[0]
    if report.status != "converged":
        v.reasons.append(f"status {report.status!r}")
    vals = np.asarray(report.eigenvalues)
    x = np.asarray(report.eigenvectors)
    if vals.shape != (k,) or x.shape != (a.shape[0], k):
        v.reasons.append(f"shape: {vals.shape} values, {x.shape} vectors, want {k}")
        return v
    if not (np.isfinite(vals).all() and np.isfinite(x).all()):
        v.reasons.append("non-finite eigenpairs")
        return v
    if np.any(np.diff(vals) < 0.0):
        v.reasons.append("eigenvalues not ascending")

    ax = a @ x
    if b is None:
        r = ax - x * vals
        denom = np.linalg.norm(x, axis=0)
        bx = x
    else:
        bx = b @ x
        r = ax - bx * vals
        denom = np.sqrt(np.maximum(np.einsum("ij,ij->j", x, bx), 0.0))
        denom = denom * np.where(vals > 0.0, vals, 1.0)
    res = np.linalg.norm(r, axis=0) / np.where(denom > 0.0, denom, 1.0)
    v.max_residual = float(res.max())
    if not v.max_residual < tol:
        v.reasons.append(f"residual {v.max_residual:.3e} >= tol {tol:.0e}")

    err = np.abs(vals - reference) / np.abs(reference)
    v.max_eig_rel_err = float(err.max())
    if not v.max_eig_rel_err <= EIG_RTOL:
        v.reasons.append(f"eigenvalue rel. error {v.max_eig_rel_err:.3e}")

    v.orth_defect = float(np.abs(x.T @ bx - np.eye(k)).max())
    if not v.orth_defect <= ORTH_TOL:
        v.reasons.append(f"B-orthonormality defect {v.orth_defect:.3e}")
    return v
