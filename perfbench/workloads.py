"""The benchmark's workloads, their MatrixMarket inputs and oracle references.

Why each workload is in the set, and why two larger problems are not, is in
README.md next to this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from gcgeig import SolverConfig, generate_builtin, write_matrix_market

TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str
    n: int
    num_eigen: int
    moving: bool

    def config(self, seed):
        return SolverConfig(
            num_eigen=self.num_eigen, tol=TOL, seed=seed, moving=self.moving
        )


WORKLOADS = {
    w.name: w
    for w in (
        # inner CG and the sparse A and B applications dominate; the only
        # workload where B enters CG, orthogonalization and the residual test
        Workload("fem-cg", "fem1d-p1", 3000, 10, moving=False),
        # projected problem grows to 400: the dense Rayleigh-Ritz dominates
        Workload("cluster-wide", "clustered-random", 2000, 200, moving=False),
        # same matrix, projected problem capped at 200 by the moving window
        Workload("cluster-moving", "clustered-random", 2000, 200, moving=True),
    )
}


@dataclass
class Problem:
    """A workload instance: the written files and the generator's matrices."""

    paths: list
    a: object           # scipy CSR, as generated
    b: object | None

    @property
    def file_bytes(self):
        return sum(Path(p).stat().st_size for p in self.paths)


def write_problem(workload, seed, directory):
    """Generate the workload's matrices from ``seed`` and write them as .mtx.

    fem1d-p1 has no random entries, so its seed reaches only the solver's
    starting block; clustered-random draws its matrix from the seed too.
    """
    a, b = generate_builtin(workload.generator, workload.n, seed=seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"{workload.name}-{seed}-a.mtx"]
    write_matrix_market(a, paths[0])
    if b is not None:
        paths.append(directory / f"{workload.name}-{seed}-b.mtx")
        write_matrix_market(b, paths[1])
    return Problem(paths, a.tocsr(), None if b is None else b.tocsr())


def reference_eigenvalues(workload, problem):
    """The ``num_eigen`` smallest eigenvalues, independent of the solver."""
    k = workload.num_eigen
    if workload.generator == "fem1d-p1":
        # (6/h^2)(1 - cos t)/(2 + cos t) with t = k*pi*h; 1 - cos t is
        # written as 2 sin^2(t/2) so small t loses no digits
        h = 1.0 / (workload.n + 1)
        t = np.arange(1, k + 1) * math.pi * h
        return (6.0 / h**2) * 2.0 * np.sin(t / 2.0) ** 2 / (2.0 + np.cos(t))
    b = None if problem.b is None else problem.b.toarray()
    return scipy.linalg.eigh(
        problem.a.toarray(), b, eigvals_only=True, subset_by_index=[0, k - 1]
    )
