"""Matrix file round-trips, builtin generators, and history/record output."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
import scipy.sparse

from gcgeig import (
    InvalidShape,
    IoError,
    ParseError,
    RunRecord,
    SolverConfig,
    UnknownGenerator,
    Unsupported,
    gcg_solve,
    generate_builtin,
    history_rows,
    read_matrix_market,
    write_history,
    write_matrix_market,
)
from gcgeig.cli import run_cli
from gcgeig.io import GENERATOR_NAMES, HISTORY_COLUMNS


def _dense(op):
    return op.tocsr().toarray()


def _write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# generators


def test_laplacian1d_three_point_spectrum():
    a, b = generate_builtin("laplacian1d", 3)
    assert b is None
    vals = np.linalg.eigvalsh(_dense(a))
    expected = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    assert np.abs(vals - expected).max() <= 1e-14


def test_laplacian1d_stencil_entries():
    a, _ = generate_builtin("laplacian1d", 5)
    d = _dense(a)
    assert np.all(np.diag(d) == 2.0)
    assert np.all(np.diag(d, 1) == -1.0)
    assert np.all(np.diag(d, -1) == -1.0)
    assert np.count_nonzero(d) == 5 + 2 * 4


def test_fem1d_pair_entries():
    n = 7
    h = 1.0 / (n + 1)
    a, b = generate_builtin("fem1d-p1", n)
    da, db = _dense(a), _dense(b)
    assert np.allclose(np.diag(da), 2.0 / h)
    assert np.allclose(np.diag(da, 1), -1.0 / h)
    assert np.allclose(np.diag(db), 4.0 * h / 6.0)
    assert np.allclose(np.diag(db, 1), h / 6.0)


def test_fem1d_discrete_spectrum_matches_analytic_formula():
    # the P1 pair on a uniform grid has the closed-form spectrum
    # lambda_k = 6 (1 - cos(k pi h)) / (h^2 (2 + cos(k pi h)))
    n = 20
    h = 1.0 / (n + 1)
    a, b = generate_builtin("fem1d-p1", n)
    vals = scipy.linalg.eigh(_dense(a), _dense(b), eigvals_only=True)
    k = np.arange(1, n + 1)
    c = np.cos(k * np.pi * h)
    analytic = 6.0 * (1.0 - c) / (h * h * (2.0 + c))
    assert np.abs((vals - analytic) / analytic).max() <= 1e-12


def test_fem1d_smallest_eigenvalue_converges_quadratically_to_pi_squared():
    errs = []
    for n in (31, 63):  # h = 1/32, 1/64
        a, b = generate_builtin("fem1d-p1", n)
        lam1 = scipy.linalg.eigh(_dense(a), _dense(b), eigvals_only=True)[0]
        errs.append(abs(lam1 - math.pi**2))
    assert errs[1] <= 0.01 * math.pi**2
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5  # halving h quarters the error


def test_diag_range_values():
    a, b = generate_builtin("diag-range", 5)
    assert b is None
    assert np.array_equal(_dense(a), np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))


def test_clustered_random_is_spd_and_seeded():
    a1, _ = generate_builtin("clustered-random", 64, density=0.02, seed=5)
    a2, _ = generate_builtin("clustered-random", 64, density=0.02, seed=5)
    a3, _ = generate_builtin("clustered-random", 64, density=0.02, seed=6)
    d1 = _dense(a1)
    assert np.array_equal(d1, _dense(a2))
    assert not np.array_equal(d1, _dense(a3))
    assert np.array_equal(d1, d1.T)
    assert np.linalg.eigvalsh(d1).min() > 0.0
    assert a1.nnz > 64  # coupling actually present


def test_generator_errors():
    with pytest.raises(UnknownGenerator):
        generate_builtin("laplacian2d", 10)
    with pytest.raises(InvalidShape):
        generate_builtin("laplacian1d", 1)
    with pytest.raises(InvalidShape, match="generator seed"):
        generate_builtin("clustered-random", 10, seed=-1)
    for density in (float("nan"), float("inf"), -1.0):
        with pytest.raises(InvalidShape, match="density"):
            generate_builtin("clustered-random", 10, density=density)


# ---------------------------------------------------------------------------
# MatrixMarket reader


def test_symmetric_coordinate_expansion(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 3\n"
        "1 1 2.0\n"
        "2 1 -1.0\n"
        "2 2 2.0\n",
    )
    op = read_matrix_market(path)
    assert np.array_equal(_dense(op), [[2.0, -1.0], [-1.0, 2.0]])


def test_empty_matrix_accepted(tmp_path):
    path = _write(
        tmp_path, "%%MatrixMarket matrix coordinate real general\n3 3 0\n"
    )
    op = read_matrix_market(path)
    assert op.dim == 3
    assert op.nnz == 0
    x = np.ones((3, 1), order="F")
    assert np.array_equal(op.apply(x), np.zeros((3, 1)))


def test_duplicate_entries_are_summed(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 4\n"
        "1 1 1.5\n"
        "1 1 0.5\n"
        "2 2 1.0\n"
        "2 2 2.0\n",
    )
    assert np.array_equal(_dense(read_matrix_market(path)), [[2.0, 0.0], [0.0, 3.0]])


def test_comments_blank_lines_and_order_are_tolerated(tmp_path):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "\n"
        "2 2 3\n"
        "2 2 5.0\n"
        "% another comment between entries\n"
        "1 1 4.0\n"
        "1 2 0.0\n",
    )
    op = read_matrix_market(path)
    sp = op.tocsr()
    assert np.array_equal(_dense(op), [[4.0, 0.0], [0.0, 5.0]])
    # entries stored sorted by (row, col)
    for i in range(sp.shape[0]):
        row = sp.indices[sp.indptr[i] : sp.indptr[i + 1]]
        assert np.all(np.diff(row) > 0)


def test_array_format_general_and_symmetric(tmp_path):
    # column-major: [[1, 3], [2, 4]] symmetrized offline -> use a symmetric one
    gen = _write(
        tmp_path,
        "%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n2.0\n5.0\n",
        name="gen.mtx",
    )
    assert np.array_equal(_dense(read_matrix_market(gen)), [[1.0, 2.0], [2.0, 5.0]])
    # symmetric array stores the lower triangle per column: (1,1),(2,1),(2,2)
    sym = _write(
        tmp_path,
        "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n5.0\n",
        name="sym.mtx",
    )
    assert np.array_equal(_dense(read_matrix_market(sym)), [[1.0, 2.0], [2.0, 5.0]])


def test_roundtrip_write_then_read(tmp_path):
    rng = np.random.default_rng(11)
    m = scipy.sparse.random(9, 9, density=0.3, random_state=np.random.RandomState(4))
    m = (m + m.T).tocsr()
    m.data[:] = rng.standard_normal(m.nnz)  # full-precision doubles
    m = (m + m.T).tocsr() * 0.5
    path = tmp_path / "rt.mtx"
    write_matrix_market(m, str(path))
    back = read_matrix_market(str(path)).tocsr()
    assert np.array_equal(back.toarray(), m.toarray())


@pytest.mark.parametrize(
    "text,line",
    [
        ("%%MatrixMarket matrix coordinate real\n1 1 0\n", 1),  # short banner
        ("not a banner\n1 1 0\n", 1),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n", 2),  # bad size
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", 4),
        (
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n",
            4,
        ),
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n", 6),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, text, line):
    with pytest.raises(ParseError) as exc:
        read_matrix_market(_write(tmp_path, text))
    assert exc.value.line == line
    assert f"line {line}:" in str(exc.value)


@pytest.mark.parametrize(
    "size",
    [
        "99999999999999999999 99999999999999999999 1",
        "2 2 99999999999999999999",
        "99999999999999999999 2 1",
    ],
)
def test_counts_beyond_int64_are_a_size_line_error(tmp_path, size):
    """A declared count no int64 index can reach is rejected at the size
    line, not by an OverflowError from the sparse constructor."""
    text = f"%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n"
    with pytest.raises(ParseError) as exc:
        read_matrix_market(_write(tmp_path, text))
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "size,why",
    [
        ("4611686018427387904 4611686018427387904 1", "array is too big"),
        ("9223372036854775807 9223372036854775807 1", "Maximum allowed dimension"),
    ],
)
def test_counts_too_large_to_allocate_are_a_size_line_error(tmp_path, capsys, size, why):
    """Counts within int64 whose index arrays cannot be allocated end in a
    ParseError at the size line, and the CLI says so and exits 1, instead
    of a traceback from numpy or scipy."""
    text = f"%%MatrixMarket matrix coordinate real symmetric\n{size}\n1 1 1.0\n"
    path = _write(tmp_path, text)
    with pytest.raises(ParseError, match=why) as exc:
        read_matrix_market(path)
    assert exc.value.line == 2
    assert run_cli(["--matrix-a", str(path)]) == 1
    assert "error: line 2:" in capsys.readouterr().err


@pytest.mark.parametrize("fmt,body", [("coordinate", "2 3 1\n1 3 1.0\n"), ("array", "2 3\n")])
def test_symmetric_storage_must_be_square(tmp_path, fmt, body):
    """Symmetric storage of a non-square matrix is an error at the size
    line, in either format, even where every stored entry fits its mirror."""
    text = f"%%MatrixMarket matrix {fmt} real symmetric\n{body}"
    with pytest.raises(ParseError, match="must be square") as exc:
        read_matrix_market(_write(tmp_path, text))
    assert exc.value.line == 2
    fits = "%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n1 1 1.0\n"
    with pytest.raises(ParseError, match="must be square"):
        read_matrix_market(_write(tmp_path, fits, "fits.mtx"))


@pytest.mark.parametrize(
    "banner",
    [
        "%%MatrixMarket matrix coordinate complex general",
        "%%MatrixMarket matrix coordinate pattern general",
        "%%MatrixMarket matrix coordinate integer general",
        "%%MatrixMarket matrix coordinate real hermitian",
        "%%MatrixMarket matrix coordinate real skew-symmetric",
        "%%MatrixMarket vector coordinate real general",
    ],
)
def test_unsupported_headers(tmp_path, banner):
    with pytest.raises(Unsupported):
        read_matrix_market(_write(tmp_path, banner + "\n1 1 0\n"))


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        read_matrix_market(str(tmp_path / "nope.mtx"))


def test_banner_is_case_insensitive(tmp_path):
    path = _write(
        tmp_path,
        "%%matrixmarket MATRIX Coordinate Real General\n1 1 1\n1 1 7.0\n",
    )
    assert np.array_equal(_dense(read_matrix_market(path)), [[7.0]])


@pytest.mark.parametrize(
    "entry",
    [
        "1 1 1.0abc",
        "1 1 1.0D2",
        "1 1 1.0 7",
        "1 1 1.0 % note",
        "1 1 1.0.5",
        "1 1 1_0",  # float() reads 10.0; numpy's parser does not take digit groups
        "1_0 1 1.0",
    ],
)
def test_entries_a_lenient_reader_would_misread_are_rejected(tmp_path, entry):
    text = f"%%MatrixMarket matrix coordinate real general\n2 2 1\n{entry}\n"
    with pytest.raises(ParseError) as exc:
        read_matrix_market(_write(tmp_path, text))
    assert exc.value.line == 3


def test_digit_group_in_an_array_value_is_rejected(tmp_path):
    text = "%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n% c\n2 1_0\n"
    with pytest.raises(ParseError) as exc:
        read_matrix_market(_write(tmp_path, text))
    assert exc.value.line == 5


def test_layout_variants_are_read(tmp_path):
    coo = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\r\n"
        "% comment\r\n"
        "2 2 4\r\n"
        "  +1\t1\t-0.0\r\n"
        "% between entries\r\n"
        "\t2 2 5e0  \r\n"
        "+2 +1 .5\r\n"
        "1 2 0.5\r\n"
        "\r\n   \r\n\n",
        name="coo.mtx",
    )
    sp = read_matrix_market(coo).tocsr()
    assert np.array_equal(sp.toarray(), [[0.0, 0.5], [0.5, 5.0]])
    assert sp.nnz == 4 and np.signbit(sp.data[0])  # the stored -0.0 stays
    # array values may sit several to a line, in any layout
    arr = _write(
        tmp_path,
        "%%MatrixMarket matrix array real symmetric\n3 3\n1 2\n3\n\n 4\t5 6\n",
        name="arr.mtx",
    )
    expected = [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]
    assert np.array_equal(_dense(read_matrix_market(arr)), expected)


def _assert_same_csr(got, want):
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("kind", GENERATOR_NAMES)
def test_generated_matrices_read_back_byte_equal(tmp_path, kind):
    ops = [op for op in generate_builtin(kind, 60, density=0.1, seed=3) if op is not None]
    for k, op in enumerate(ops):  # fem1d-p1 gives A and B
        want = op.tocsr()
        want.sort_indices()
        path = str(tmp_path / f"{k}.mtx")
        write_matrix_market(op, path)
        _assert_same_csr(read_matrix_market(path).tocsr(), want)
        # symmetric storage of the lower triangle, each entry as two halves
        low = scipy.sparse.tril(want).tocoo()
        body = "".join(
            f"{i + 1} {j + 1} {v / 2:.17g}\n" * 2 for i, j, v in zip(low.row, low.col, low.data)
        )
        n = want.shape[0]
        text = f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {2 * low.nnz}\n"
        _assert_same_csr(read_matrix_market(_write(tmp_path, text + body)).tocsr(), want)


def test_array_symmetric_matches_a_loop_fill(tmp_path):
    n = 7
    vals = np.random.default_rng(5).standard_normal(n * (n + 1) // 2)
    want = np.zeros((n, n))
    k = 0
    for j in range(n):  # the lower triangle, column by column
        for i in range(j, n):
            want[i, j] = want[j, i] = vals[k]
            k += 1
    text = f"%%MatrixMarket matrix array real symmetric\n{n} {n}\n"
    text += "".join(f"{v:.17g}\n" for v in vals)
    got = read_matrix_market(_write(tmp_path, text)).tocsr()
    _assert_same_csr(got, scipy.sparse.csr_matrix(want))


def test_a_parse_error_the_line_walk_cannot_place_names_numpy_row(tmp_path, monkeypatch):
    path = _write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n\n2 2 2.0\n",
    )

    def reject(*args, **kwargs):
        raise ValueError("could not convert string '2.0' to float64 at row 1, column 3.")

    monkeypatch.setattr(np, "loadtxt", reject)
    with pytest.raises(ParseError, match="at row 1") as exc:
        read_matrix_market(path)
    assert exc.value.line == 5


def test_an_integer_read_via_a_float_is_rejected(tmp_path, monkeypatch):
    # some numpy releases parse '1.5' in an integer field as 1 and only warn
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n1.5 1 1.0\n")

    def lenient(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.array([(1, 1, 1.0)], dtype=kwargs["dtype"])

    monkeypatch.setattr(np, "loadtxt", lenient)
    with pytest.raises(ParseError, match="bad row index") as exc:
        read_matrix_market(path)
    assert exc.value.line == 3


# ---------------------------------------------------------------------------
# history / run record serialization


def _small_report(**over):
    cfg = SolverConfig(num_eigen=2, tol=1e-9, seed=1, **over)
    return gcg_solve(np.diag(np.arange(1.0, 11.0)), config=cfg)


def test_history_csv_shape(tmp_path):
    rep = _small_report()
    path = tmp_path / "h.csv"
    write_history(rep, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) == 1 + rep.iterations
    first = lines[1].split(",")
    assert len(first) == len(HISTORY_COLUMNS)
    assert first[0] == "1"  # iter column is 1-based


def test_history_empty_gives_header_only(tmp_path):
    rep = dataclasses.replace(_small_report(), history=[])
    path = tmp_path / "h.csv"
    write_history(rep, str(path))
    assert path.read_text() == ",".join(HISTORY_COLUMNS) + "\n"


def test_history_json_and_csv_agree(tmp_path):
    rep = _small_report()
    cpath, jpath = tmp_path / "h.csv", tmp_path / "h.json"
    write_history(rep, str(cpath))
    write_history(rep, str(jpath), format="json")
    rows_json = json.loads(jpath.read_text())
    lines = cpath.read_text().strip().splitlines()
    assert len(rows_json) == len(lines) - 1
    for row, line in zip(rows_json, lines[1:]):
        cells = line.split(",")
        for col, cell in zip(HISTORY_COLUMNS, cells):
            assert float(cell) == row[col]


def test_history_reports_inner_cg_outcome():
    """cg_converged and cg_frozen carry block_cg's per-call column counts."""
    rep = gcg_solve(np.diag(np.arange(1.0, 41.0)), config=SolverConfig(num_eigen=6, seed=2))
    rows = history_rows(rep)
    assert [r["cg_converged"] for r in rows] == [h.cg_converged for h in rep.history]
    assert [r["cg_frozen"] for r in rows] == [h.cg_frozen for h in rep.history]
    assert sum(r["cg_converged"] for r in rows) > 0
    for row in rows:
        assert row["cg_converged"] + row["cg_frozen"] <= 2   # block size ceil(6/5)
        if row["cg_iters"] == 0:
            assert row["cg_converged"] == row["cg_frozen"] == 0


def test_history_unknown_format(tmp_path):
    with pytest.raises(Unsupported):
        write_history(_small_report(), str(tmp_path / "h.xml"), format="xml")


def test_history_unwritable_path_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        write_history(_small_report(), str(tmp_path / "no" / "dir" / "h.csv"))


def test_run_record_roundtrip():
    rep = _small_report()
    config = {"num_eigen": 2, "tol": 1e-9, "deterministic": False}
    rec = RunRecord.from_run(rep, config, wall_time=1.25, nnz_a=10)
    back = RunRecord.from_json(rec.to_json())
    assert back == rec
    assert rec.schema_version == 2
    assert rec.nnz_a == 10 and rec.nnz_b is None
    assert rec.wall_time == 1.25
    assert rec.history == history_rows(rep)
    assert len(rec.eigenvalues) == 2
    assert np.asarray(rec.eigenvectors).shape == (10, 2)
