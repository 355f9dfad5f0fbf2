"""Matrix ingestion, builtin problem generators, and run serialization.

MatrixMarket bodies are parsed by numpy's C reader, ``np.loadtxt``.  A
line walk runs only on a file that parse rejects, to give the error its
1-based line number.  Numbers follow Python's ``int`` and ``float``,
except that digit groups (``1_0``) are an error, as they are to numpy.
Symmetric storage is expanded to full CSR, duplicate entries are summed,
and entries end up sorted by (row, col).
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import re
import warnings
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
# Largest count a size line may declare: the entries' indices are int64.
_INDEX_MAX = np.iinfo(np.int64).max

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


def _read_head(path):
    """Banner, size-line tokens and number, and the text after the size line."""
    try:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            line = fh.readline()
            if not line:
                raise ParseError("empty file", line=1)
            fmt, symmetry = _parse_banner(line)
            # skip comments / blank lines up to the size line
            lineno, line = 2, fh.readline()
            while line and (line.lstrip().startswith("%") or not line.strip()):
                lineno, line = lineno + 1, fh.readline()
            if not line:
                raise ParseError("missing size line", line=lineno)
            return fmt, symmetry, line.split(), lineno, fh.read()
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


def _walk(coordinate, body, first, shape, count, exc):
    """Raise :class:`ParseError` at the first line of ``body`` (numbered from
    ``first``) that fails a check, else at the entry numpy's ``exc`` names."""
    nrows, ncols = shape
    lines = io.StringIO(body).readlines()
    what = "entries" if coordinate else "values"
    where = []  # the line of each entry, counted as numpy counts rows
    for lineno, raw in enumerate(lines, first):
        tok = raw.split()
        if not tok or tok[0].startswith("%"):
            continue
        if len(where) >= count:
            raise ParseError(f"more than the declared {count} {what}", line=lineno)
        if coordinate:
            if len(tok) != 3:
                raise ParseError("entry must be 'row col value'", line=lineno)
            i = _int_field(tok[0], "row index", lineno)
            j = _int_field(tok[1], "column index", lineno)
            if not (1 <= i <= nrows and 1 <= j <= ncols):
                raise ParseError(f"index ({i}, {j}) outside {nrows}x{ncols}", line=lineno)
            tok = tok[2:]
        for t in tok:
            if len(where) >= count:
                raise ParseError(f"more than the declared {count} {what}", line=lineno)
            _float_field(t, lineno)
            where.append(lineno)
        if "_" in raw:  # int() and float() accept digit groups; numpy does not
            raise ParseError("digit group '_' not accepted", line=lineno)
    if len(where) != count:
        raise ParseError(
            f"declared {count} {what} but found {len(where)}", line=first + len(lines)
        )
    row = re.search(r"at row (\d+)", str(exc))  # 0-based, as numpy counts rows
    k = int(row[1]) if row else len(where)
    raise ParseError(str(exc), line=where[k] if k < len(where) else first)


def read_matrix_market(path):
    """Read a real MatrixMarket file into a :class:`CsrOperator`.

    Coordinate and array formats are accepted, general or symmetric.
    Symmetric storage is mirrored to full form; duplicate coordinate
    entries are summed.  Malformed content raises :class:`ParseError`
    carrying the 1-based line number; complex/pattern/integer fields
    raise :class:`Unsupported`.

    The body is parsed by ``np.loadtxt``; when that parse, the declared
    count or an index bound fails, a line walk names the bad line.
    Numbers are read as Python's ``int`` and ``float`` read them, except
    that digit groups such as ``1_0`` are an error.
    """
    fmt, symmetry, size_tok, size_lineno, body = _read_head(path)
    coordinate = fmt == "coordinate"
    if len(size_tok) != (3 if coordinate else 2):
        shape_spec = "rows cols nnz" if coordinate else "rows cols"
        raise ParseError(f"size line must be '{shape_spec}'", line=size_lineno)
    nrows = _int_field(size_tok[0], "row count", size_lineno)
    ncols = _int_field(size_tok[1], "column count", size_lineno)
    if coordinate:
        count = _int_field(size_tok[2], "entry count", size_lineno)
    else:  # array: dense, column-major, the lower triangle if symmetric
        count = nrows * (nrows + 1) // 2 if symmetry == "symmetric" else nrows * ncols
    if min(nrows, ncols, count) < 0:
        raise ParseError("size line entries must be nonnegative", line=size_lineno)
    if max(nrows, ncols) > _INDEX_MAX or (coordinate and count > _INDEX_MAX):
        raise ParseError(f"size line entries must be at most {_INDEX_MAX}", line=size_lineno)
    if symmetry == "symmetric" and nrows != ncols:
        raise ParseError("symmetric matrix must be square", line=size_lineno)

    text = body
    if "%" in text:  # drop comment lines; a '%' anywhere else fails the parse
        text = "".join(x for x in io.StringIO(text) if not x.lstrip().startswith("%"))
    if not coordinate:  # one value per line, whatever the file's layout
        text = "\n".join(text.split())
    dtype = [("i", "i8"), ("j", "i8"), ("v", "f8")] if coordinate else "f8"
    e = np.empty(0, dtype)  # the entries; loadtxt warns on an empty body
    try:
        with warnings.catch_warnings():
            # numpy releases that read an integer via a float ('1.5' -> 1) warn
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            if text.strip():
                e = np.loadtxt(io.StringIO(text), dtype=dtype, comments=None, ndmin=1)
        if len(e) != count:
            raise ValueError(f"{len(e)} entries")
        if coordinate:
            i, j = e["i"], e["j"]
            if ((i < 1) | (i > nrows) | (j < 1) | (j > ncols)).any():
                raise ValueError("index out of range")
    except (ValueError, DeprecationWarning) as exc:
        _walk(coordinate, body, size_lineno + 1, (nrows, ncols), count, exc)

    try:
        if coordinate:
            rows, cols, vals = i - 1, j - 1, e["v"]
            if symmetry == "symmetric":  # mirror after the stored entries, in file order
                off = rows != cols
                rows, cols, vals = (
                    np.concatenate([rows, cols[off]]),
                    np.concatenate([cols, rows[off]]),
                    np.concatenate([vals, vals[off]]),
                )
            sp = scipy.sparse.coo_matrix(
                (vals, (rows, cols)), shape=(nrows, ncols), dtype=np.float64
            ).tocsr()
        else:
            dense = np.zeros((nrows, ncols), dtype=np.float64)
            if symmetry == "symmetric":
                j, i = np.triu_indices(nrows)  # the lower triangle, column by column
                dense[i, j] = e
                dense[j, i] = e
            else:
                dense[:] = e.reshape(ncols, nrows).T
            sp = scipy.sparse.csr_matrix(dense)
    except (ValueError, MemoryError) as exc:
        # counts within int64 whose index arrays still cannot be allocated
        raise ParseError(
            f"cannot allocate a {nrows}x{ncols} matrix: {exc}", line=size_lineno
        ) from None

    sp.sum_duplicates()
    sp.sort_indices()
    return CsrOperator._adopt(sp)


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
    return CsrOperator._adopt(_tridiag(n, -1.0, 2.0, -1.0)), None


def _fem1d_p1(n, density, seed):
    h = 1.0 / (n + 1)
    a = (1.0 / h) * _tridiag(n, -1.0, 2.0, -1.0)
    b = (h / 6.0) * _tridiag(n, 1.0, 4.0, 1.0)
    return CsrOperator._adopt(a), CsrOperator._adopt(b)


def _diag_range(n, density, seed):
    return CsrOperator._adopt(scipy.sparse.diags(np.arange(1.0, n + 1.0), format="csr")), None


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
    return CsrOperator._adopt(a), None


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
