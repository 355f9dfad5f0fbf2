"""gcgeig: a matrix-free block eigensolver for symmetric (generalized) problems.

The solver combines block damping inverse power iteration, a structured
Rayleigh-Ritz projection, dynamic shifts for the inner CG solves, locking of
converged pairs, and an optional moving window that caps the projected
problem size.  Block orthogonalization is a communication-lean recursive
SVD-based scheme with instrumented reduction counts.
"""

from .errors import (
    AllDependent,
    GcgError,
    InvalidMatrix,
    InvalidRange,
    InvalidShape,
    IoError,
    NoConvergence,
    ParseError,
    UnknownGenerator,
    Unsupported,
)
from .operators import (
    CsrOperator,
    DenseOperator,
    DiagonalOperator,
    LinearOperator,
    ShiftedOperator,
)
from .io import (
    RunRecord,
    generate_builtin,
    history_rows,
    read_matrix_market,
    write_history,
    write_matrix_market,
)
from .orth import OrthOutcome, orth_against, recursive_orth_svd
from .solver import SolverConfig, SolverReport, gcg_solve, moving_memory_budget
from . import kernels

__version__ = "0.1.0"

__all__ = [
    "gcg_solve",
    "SolverConfig",
    "SolverReport",
    "moving_memory_budget",
    "read_matrix_market",
    "write_matrix_market",
    "generate_builtin",
    "RunRecord",
    "write_history",
    "history_rows",
    "OrthOutcome",
    "recursive_orth_svd",
    "orth_against",
    "LinearOperator",
    "DenseOperator",
    "CsrOperator",
    "DiagonalOperator",
    "ShiftedOperator",
    "GcgError",
    "InvalidMatrix",
    "InvalidShape",
    "InvalidRange",
    "NoConvergence",
    "AllDependent",
    "ParseError",
    "Unsupported",
    "UnknownGenerator",
    "IoError",
    "kernels",
    "__version__",
]
