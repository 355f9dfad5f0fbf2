"""Matrix file round-trips, builtin generators, and history/record output."""

import dataclasses
import json
import math

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
from gcgeig.io import HISTORY_COLUMNS


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
