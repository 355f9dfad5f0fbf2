"""Exit codes, output files, and flag plumbing of the command-line front end."""

import json
import math

import numpy as np
import pytest

from gcgeig import generate_builtin, write_matrix_market
from gcgeig.cli import (
    EXIT_CONVERGED,
    EXIT_ERROR,
    EXIT_MAX_ITERATIONS,
    EXIT_USAGE,
    run_cli,
)
from gcgeig.io import HISTORY_COLUMNS


def test_builtin_laplacian_converges_with_analytic_values(capsys):
    code = run_cli(
        ["--builtin", "laplacian1d", "--n", "100", "--num-eigen", "5"]
    )
    assert code == EXIT_CONVERGED
    record = json.loads(capsys.readouterr().out)
    assert record["status"] == "converged"
    assert len(record["eigenvalues"]) == 5
    ref = [2.0 - 2.0 * math.cos(k * math.pi / 101.0) for k in range(1, 6)]
    assert np.abs(np.array(record["eigenvalues"]) - ref).max() <= 1e-10
    assert record["schema_version"] == 2
    assert record["nnz_a"] == 100 + 2 * 99


def test_source_conflict_exits_64(capsys):
    assert run_cli(["--matrix-a", "a.mtx", "--builtin", "laplacian1d"]) == EXIT_USAGE
    assert run_cli([]) == EXIT_USAGE  # no source at all
    assert run_cli(["--matrix-b", "b.mtx", "--builtin", "laplacian1d"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_matrix_file_exits_1(capsys):
    code = run_cli(["--matrix-a", "/nonexistent/path.mtx"])
    assert code == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_non_square_symmetric_file_exits_1(tmp_path, capsys):
    """A symmetric coordinate file whose mirrored entry falls outside the
    declared shape is a parse error at the size line, not a traceback."""
    path = tmp_path / "a.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n")
    assert run_cli(["--matrix-a", str(path)]) == EXIT_ERROR
    assert "error: line 2:" in capsys.readouterr().err


def test_unknown_builtin_exits_1(capsys):
    assert run_cli(["--builtin", "bogus"]) == EXIT_ERROR
    assert "unknown generator" in capsys.readouterr().err


def test_max_iterations_exits_2(tmp_path, capsys):
    code = run_cli(
        [
            "--builtin", "laplacian1d", "--n", "200", "--num-eigen", "10",
            "--tol", "1e-12", "--max-iters", "2",
            "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == EXIT_MAX_ITERATIONS
    record = json.loads((tmp_path / "r.json").read_text())
    assert record["status"] == "max_iterations"
    assert record["iterations"] == 2


def test_bad_flag_syntax_keeps_argparse_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--builtin", "laplacian1d", "--shift", "sideways"])
    assert exc.value.code == 2


def test_matrix_file_run_matches_builtin(tmp_path, capsys):
    a, b = generate_builtin("fem1d-p1", 40)
    apath, bpath = tmp_path / "a.mtx", tmp_path / "b.mtx"
    write_matrix_market(a, str(apath))
    write_matrix_market(b, str(bpath))
    args = ["--num-eigen", "4", "--deterministic"]
    assert run_cli(["--builtin", "fem1d-p1", "--n", "40"] + args) == 0
    from_builtin = json.loads(capsys.readouterr().out)["eigenvalues"]
    assert (
        run_cli(["--matrix-a", str(apath), "--matrix-b", str(bpath)] + args) == 0
    )
    from_files = json.loads(capsys.readouterr().out)["eigenvalues"]
    assert from_files == from_builtin  # bitwise: same problem, same seed
    assert from_builtin[0] == pytest.approx(math.pi**2, rel=1e-2)


def test_history_file_csv_and_json(tmp_path, capsys):
    hist = tmp_path / "h.csv"
    code = run_cli(
        [
            "--builtin", "diag-range", "--n", "50", "--num-eigen", "5",
            "--history", str(hist),
        ]
    )
    assert code == EXIT_CONVERGED
    capsys.readouterr()
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) >= 2

    hjson = tmp_path / "h.json"
    code = run_cli(
        [
            "--builtin", "diag-range", "--n", "50", "--num-eigen", "5",
            "--history", str(hjson), "--format", "json",
        ]
    )
    assert code == EXIT_CONVERGED
    capsys.readouterr()
    rows = json.loads(hjson.read_text())
    assert len(rows) == len(lines) - 1
    assert set(rows[0]) == set(HISTORY_COLUMNS)


@pytest.mark.parametrize(
    "problem",
    [
        [
            "--builtin", "clustered-random", "--n", "96", "--gen-seed", "3",
            "--num-eigen", "6", "--seed", "7",
        ],
        # more rows than the 8192 a Gram product once folded in chunks of
        ["--builtin", "diag-range", "--n", "9000", "--num-eigen", "2"],
    ],
    ids=["clustered-random-96", "diag-range-9000"],
)
def test_deterministic_records_are_byte_identical(tmp_path, capsys, problem):
    args = problem + ["--deterministic"]
    records, histories = [], {}
    for run, fmt in enumerate(("csv", "csv", "json", "json")):
        out, hist = tmp_path / f"r{run}.json", tmp_path / f"h{run}.{fmt}"
        assert run_cli(
            args + ["--out", str(out), "--history", str(hist), "--format", fmt]
        ) == EXIT_CONVERGED
        records.append(out.read_bytes())
        histories.setdefault(fmt, []).append(hist.read_bytes())
    capsys.readouterr()
    assert all(r == records[0] for r in records)
    assert histories["csv"][0] == histories["csv"][1]
    assert histories["json"][0] == histories["json"][1]
    record = json.loads(records[0])
    assert record["wall_time"] == 0.0
    assert all(v == 0.0 for v in record["timings"].values())

    timing_cols = [c for c in HISTORY_COLUMNS if c.startswith("t_step")]
    lines = histories["csv"][0].decode().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    rows += json.loads(histories["json"][0])
    assert len(rows) == 2 * record["iterations"]
    assert all(float(row[c]) == 0.0 for row in rows for c in timing_cols)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--block-size", "0"], "block_size must be at least 1"),
        (["--tol", "0"], "tol must be positive"),
        (["--cg-max-iters", "-1"], "cg_max_iters must be at least 0"),
        (["--seed", "-1"], "seed must be at least 0"),
        (["--builtin", "clustered-random", "--gen-seed", "-1"], "generator seed must be"),
        (["--builtin", "clustered-random", "--density", "nan"], "density must be finite"),
    ],
    ids=["block-size", "tol", "cg-max-iters", "seed", "gen-seed", "density"],
)
def test_bad_solver_argument_exits_1(capsys, flags, message):
    code = run_cli(["--builtin", "diag-range", "--n", "30", "--num-eigen", "3", *flags])
    assert code == EXIT_ERROR
    assert f"error: {message}" in capsys.readouterr().err


def test_shift_flag_changes_theta_column(tmp_path, capsys):
    base = [
        "--builtin", "diag-range", "--n", "60", "--num-eigen", "6",
        "--deterministic",
    ]
    hd, hn = tmp_path / "dyn.csv", tmp_path / "none.csv"
    assert run_cli(base + ["--shift", "dynamic", "--history", str(hd)]) == 0
    assert run_cli(base + ["--shift", "none", "--history", str(hn)]) == 0
    capsys.readouterr()

    def theta_column(path):
        lines = path.read_text().strip().splitlines()
        k = HISTORY_COLUMNS.index("theta")
        return [float(line.split(",")[k]) for line in lines[1:]]

    dyn, none = theta_column(hd), theta_column(hn)
    assert all(t == 0.0 for t in none)
    assert any(t > 0.0 for t in dyn)


def test_resolved_config_is_recorded(capsys):
    assert (
        run_cli(["--builtin", "laplacian1d", "--n", "80", "--num-eigen", "7"])
        == EXIT_CONVERGED
    )
    record = json.loads(capsys.readouterr().out)
    cfg = record["config"]
    assert cfg["n"] == 80
    assert cfg["num_eigen"] == 7
    assert cfg["block_size"] == 2  # ceil(7 / 5)
    assert cfg["size_x"] == 7 + 3 * 2
    assert cfg["shift"] == "dynamic"
    assert cfg["moving"] is False
