"""Matrix ingestion, builtin problem generators, and run serialization.

MatrixMarket reading is implemented here rather than delegated so that
errors carry 1-based line numbers and the symmetric/duplicate semantics
are exactly as documented: symmetric storage is expanded to full CSR,
duplicate entries are summed, and entries end up sorted by (row, col).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import kernels
from .errors import (
    InvalidShape,
    IoError,
    ParseError,
    UnknownGenerator,
    Unsupported,
)
from .operators import CsrOperator
from .solver import _TIMING_KEYS

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "generate_builtin",
    "GENERATOR_NAMES",
    "RunRecord",
    "write_history",
    "history_rows",
    "HISTORY_COLUMNS",
]

SCHEMA_VERSION = 2

HISTORY_COLUMNS = (
    "iter",
    "num_converged",
    "first_unconverged_residual",
    "theta",
    "cg_iters",
    "cg_converged",
    "cg_frozen",
    *_TIMING_KEYS,
    "orth_reductions",
)
_INT_COLUMNS = frozenset(
    ("iter", "num_converged", "cg_iters", "cg_converged", "cg_frozen", "orth_reductions")
)


# ---------------------------------------------------------------------------
# MatrixMarket


def _tokens(line):
    return line.split()


def _parse_banner(line):
    parts = line.split()
    if len(parts) != 5 or parts[0].lower() != "%%matrixmarket":
        raise ParseError(
            "expected banner '%%MatrixMarket matrix <format> <field> <symmetry>'",
            line=1,
        )
    obj, fmt, field, symmetry = (p.lower() for p in parts[1:])
    if obj != "matrix":
        raise Unsupported(f"object {obj!r} not supported (only 'matrix')")
    if fmt not in ("coordinate", "array"):
        raise ParseError(f"unknown format {parts[2]!r}", line=1)
    if field != "real":
        raise Unsupported(f"field {parts[3]!r} not supported (only 'real')")
    if symmetry not in ("general", "symmetric"):
        raise Unsupported(
            f"symmetry {parts[4]!r} not supported (only 'general'/'symmetric')"
        )
    return fmt, symmetry


def _read_lines(path):
    try:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            return fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def _int_field(tok, what, lineno):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}", line=lineno) from None


def _float_field(tok, lineno):
    try:
        return float(tok)
    except ValueError:
        raise ParseError(f"bad value {tok!r}", line=lineno) from None


def read_matrix_market(path):
    """Read a real MatrixMarket file into a :class:`CsrOperator`.

    Coordinate and array formats are accepted, general or symmetric.
    Symmetric storage is mirrored to full form; duplicate coordinate
    entries are summed.  Malformed content raises :class:`ParseError`
    carrying the 1-based line number; complex/pattern/integer fields
    raise :class:`Unsupported`.
    """
    lines = _read_lines(path)
    if not lines:
        raise ParseError("empty file", line=1)
    fmt, symmetry = _parse_banner(lines[0])

    # skip comments / blank lines up to the size line
    idx = 1
    while idx < len(lines) and (
        lines[idx].lstrip().startswith("%") or not lines[idx].strip()
    ):
        idx += 1
    if idx >= len(lines):
        raise ParseError("missing size line", line=len(lines) + 1)
    size_tok = _tokens(lines[idx])
    size_lineno = idx + 1

    if fmt == "coordinate":
        if len(size_tok) != 3:
            raise ParseError("size line must be 'rows cols nnz'", line=size_lineno)
        nrows = _int_field(size_tok[0], "row count", size_lineno)
        ncols = _int_field(size_tok[1], "column count", size_lineno)
        nnz = _int_field(size_tok[2], "entry count", size_lineno)
        if nrows < 0 or ncols < 0 or nnz < 0:
            raise ParseError("size line entries must be nonnegative", line=size_lineno)
        rows, cols, vals = [], [], []
        seen = 0
        for lineno in range(size_lineno + 1, len(lines) + 1):
            raw = lines[lineno - 1]
            if raw.lstrip().startswith("%") or not raw.strip():
                continue
            tok = _tokens(raw)
            if seen >= nnz:
                raise ParseError(
                    f"more than the declared {nnz} entries", line=lineno
                )
            if len(tok) != 3:
                raise ParseError("entry must be 'row col value'", line=lineno)
            i = _int_field(tok[0], "row index", lineno)
            j = _int_field(tok[1], "column index", lineno)
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ParseError(
                    f"index ({i}, {j}) outside {nrows}x{ncols}", line=lineno
                )
            v = _float_field(tok[2], lineno)
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
            seen += 1
        if seen != nnz:
            raise ParseError(
                f"declared {nnz} entries but found {seen}", line=len(lines) + 1
            )
        if symmetry == "symmetric":
            for k in range(nnz):
                if rows[k] != cols[k]:
                    rows.append(cols[k])
                    cols.append(rows[k])
                    vals.append(vals[k])
        sp = scipy.sparse.coo_matrix(
            (vals, (rows, cols)), shape=(nrows, ncols), dtype=np.float64
        ).tocsr()
    else:  # array (dense, column-major)
        if len(size_tok) != 2:
            raise ParseError("size line must be 'rows cols'", line=size_lineno)
        nrows = _int_field(size_tok[0], "row count", size_lineno)
        ncols = _int_field(size_tok[1], "column count", size_lineno)
        if nrows < 0 or ncols < 0:
            raise ParseError("size line entries must be nonnegative", line=size_lineno)
        if symmetry == "symmetric":
            if nrows != ncols:
                raise ParseError(
                    "symmetric array must be square", line=size_lineno
                )
            expected = nrows * (nrows + 1) // 2
        else:
            expected = nrows * ncols
        vals = []
        for lineno in range(size_lineno + 1, len(lines) + 1):
            raw = lines[lineno - 1]
            if raw.lstrip().startswith("%") or not raw.strip():
                continue
            for tok in _tokens(raw):
                if len(vals) >= expected:
                    raise ParseError(
                        f"more than the declared {expected} values", line=lineno
                    )
                vals.append(_float_field(tok, lineno))
        if len(vals) != expected:
            raise ParseError(
                f"declared {expected} values but found {len(vals)}",
                line=len(lines) + 1,
            )
        dense = np.zeros((nrows, ncols), dtype=np.float64)
        k = 0
        if symmetry == "symmetric":
            for j in range(ncols):
                for i in range(j, nrows):
                    dense[i, j] = vals[k]
                    dense[j, i] = vals[k]
                    k += 1
        else:
            for j in range(ncols):
                for i in range(nrows):
                    dense[i, j] = vals[k]
                    k += 1
        sp = scipy.sparse.csr_matrix(dense)

    sp.sum_duplicates()
    sp.sort_indices()
    return CsrOperator(sp)


def write_matrix_market(matrix, path):
    """Write a matrix as MatrixMarket coordinate real general.

    1-based indices, entries sorted by (row, col), values at 17
    significant digits so a read-back reproduces the matrix exactly.
    """
    if isinstance(matrix, CsrOperator):
        sp = matrix.tocsr()
    else:
        sp = scipy.sparse.csr_matrix(matrix)
    sp.sum_duplicates()
    sp.sort_indices()
    coo = sp.tocoo()
    out = ["%%MatrixMarket matrix coordinate real general\n"]
    out.append(f"{sp.shape[0]} {sp.shape[1]} {coo.nnz}\n")
    for i, j, v in zip(coo.row, coo.col, coo.data):
        out.append(f"{i + 1} {j + 1} {v:.17g}\n")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(out)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Builtin problem generators


def _tridiag(n, lo, mid, hi):
    return scipy.sparse.diags(
        [np.full(n - 1, lo), np.full(n, mid), np.full(n - 1, hi)],
        offsets=[-1, 0, 1],
        format="csr",
        dtype=np.float64,
    )


def _laplacian1d(n, density, seed):
    return CsrOperator(_tridiag(n, -1.0, 2.0, -1.0)), None


def _fem1d_p1(n, density, seed):
    h = 1.0 / (n + 1)
    a = (1.0 / h) * _tridiag(n, -1.0, 2.0, -1.0)
    b = (h / 6.0) * _tridiag(n, 1.0, 4.0, 1.0)
    return CsrOperator(a), CsrOperator(b)


def _diag_range(n, density, seed):
    return CsrOperator(scipy.sparse.diags(np.arange(1.0, n + 1.0), format="csr")), None


def _clustered_random(n, density, seed):
    """Diagonally dominant sparse matrix with a clustered spectrum.

    Tight clusters of 8 diagonal values separated by O(1) gaps, plus a
    weak random symmetric coupling whose row sums are scaled below the
    smallest diagonal entry, so the matrix stays positive definite and
    the spectrum keeps the cluster structure.
    """
    rng = np.random.default_rng(seed)
    cluster = 8
    num_clusters = (n + cluster - 1) // cluster
    centers = np.cumsum(0.5 + 2.0 * rng.random(num_clusters))
    diag = np.repeat(centers, cluster)[:n] + 0.01 * rng.random(n)
    # normalize the spectrum to [1, 4] so an absolute residual tolerance
    # keeps its usual meaning regardless of n (the cluster structure is a
    # property of the gap ratios, which a uniform rescale preserves)
    diag = 1.0 + 3.0 * (diag - diag.min()) / (diag.max() - diag.min())
    target = max(0, int(density * n * n / 2))
    rows = rng.integers(0, n, target)
    cols = rng.integers(0, n, target)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    c = scipy.sparse.coo_matrix(
        (rng.uniform(-1.0, 1.0, rows.shape[0]), (rows, cols)), shape=(n, n)
    ).tocsr()
    c = c + c.T
    row_sum = np.abs(c).sum(axis=1)
    worst = float(np.max(row_sum)) if c.nnz else 0.0
    if worst > 0.0:
        c = c * (0.4 * float(diag.min()) / worst)
    a = scipy.sparse.diags(diag, format="csr") + c
    return CsrOperator(a), None


_GENERATORS = {
    "laplacian1d": _laplacian1d,
    "fem1d-p1": _fem1d_p1,
    "diag-range": _diag_range,
    "clustered-random": _clustered_random,
}

GENERATOR_NAMES = tuple(sorted(_GENERATORS))


def generate_builtin(kind, n, density=0.005, seed=0):
    """Build a named test problem; returns ``(A, B-or-None)`` operators."""
    try:
        gen = _GENERATORS[kind]
    except KeyError:
        raise UnknownGenerator(
            f"unknown generator {kind!r}; choose from {', '.join(GENERATOR_NAMES)}"
        ) from None
    n, density, seed = int(n), float(density), int(seed)
    if n < 2:
        raise InvalidShape(f"generator needs n >= 2, got {n}")
    if not (math.isfinite(density) and density >= 0.0):
        raise InvalidShape(f"density must be finite and at least 0, got {density}")
    if seed < 0:
        raise InvalidShape(f"generator seed must be at least 0, got {seed}")
    return gen(n, density, seed)


# ---------------------------------------------------------------------------
# Run serialization


def history_rows(report):
    """Per-iteration history as plain dicts, one per iteration, with the
    same columns the CSV writer emits."""
    rows = []
    for rec in report.history:
        row = {
            "iter": int(rec.iteration),
            "num_converged": int(rec.num_converged),
            "first_unconverged_residual": float(rec.first_unconverged_residual),
            "theta": float(rec.theta),
            "cg_iters": int(rec.cg_iterations),
            "cg_converged": int(rec.cg_converged),
            "cg_frozen": int(rec.cg_frozen),
        }
        for key in _TIMING_KEYS:
            row[key] = float(rec.timings.get(key, 0.0))
        row["orth_reductions"] = int(rec.orth_reductions)
        rows.append(row)
    return rows


def _fmt_cell(col, value):
    if col in _INT_COLUMNS:
        return str(int(value))
    return format(float(value), ".17g")


def write_history(report, path, format="csv"):
    """Write per-iteration history as CSV (default) or JSON.

    Floats are written at 17 significant digits, so the output is
    bit-stable given identical history; an empty history yields a
    header-only CSV (or an empty JSON list).
    """
    rows = history_rows(report)
    if format == "csv":
        text = ",".join(HISTORY_COLUMNS) + "\n"
        for row in rows:
            text += ",".join(_fmt_cell(c, row[c]) for c in HISTORY_COLUMNS) + "\n"
    elif format == "json":
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    else:
        raise Unsupported(f"unknown history format {format!r}")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


@dataclass
class RunRecord:
    """Machine-readable summary of one solver run.

    Everything is held as plain Python scalars/lists/dicts so the record
    round-trips losslessly through JSON (Python float serialization is
    shortest-exact) and compares by value.
    """

    schema_version: int
    config: dict
    status: str
    eigenvalues: list
    eigenvectors: list
    residuals: list
    num_converged: int
    iterations: int
    stagnated: bool
    max_projection_dim: int
    total_reductions: int
    backend: str
    timings: dict
    wall_time: float
    nnz_a: int | None
    nnz_b: int | None
    history: list

    @classmethod
    def from_run(cls, report, config, wall_time=0.0, nnz_a=None, nnz_b=None):
        """Assemble a record from a finished :class:`SolverReport`.

        ``config`` is the resolved configuration dict.  The timings and
        ``wall_time`` are recorded as given; a caller that wants repeated
        runs to serialize to identical bytes zeroes them first.
        """
        timings = {key: 0.0 for key in _TIMING_KEYS}
        for rec in report.history:
            for key in _TIMING_KEYS:
                timings[key] += float(rec.timings.get(key, 0.0))
        return cls(
            schema_version=SCHEMA_VERSION,
            config=dict(config),
            status=report.status,
            eigenvalues=[float(v) for v in report.eigenvalues],
            eigenvectors=np.asarray(report.eigenvectors).tolist(),
            residuals=[float(v) for v in report.residuals],
            num_converged=int(report.num_converged),
            iterations=int(report.iterations),
            stagnated=bool(report.stagnated),
            max_projection_dim=int(report.max_projection_dim),
            total_reductions=int(report.total_reductions),
            backend=kernels.backend_name(),
            timings=timings,
            wall_time=float(wall_time),
            nnz_a=None if nnz_a is None else int(nnz_a),
            nnz_b=None if nnz_b is None else int(nnz_b),
            history=history_rows(report),
        )

    def to_json(self):
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(**data)

    def write(self, path):
        try:
            with open(path, "w", encoding="ascii") as fh:
                fh.write(self.to_json())
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
