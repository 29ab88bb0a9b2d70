import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matmeans import cli, suite
from matmeans.densela import random_pd, read_matrix, write_matrix


def run_cli(args):
    return cli.main(args)


def test_gen_condition_zero_is_identity(tmp_path, capsys):
    out = tmp_path / "m.txt"
    assert run_cli(["gen", "--dim", "3", "--cond", "0", "--seed", "5", "--out", str(out)]) == 0
    m = read_matrix(out)
    assert np.max(np.abs(m - np.eye(3))) <= 1e-10


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(["gen", "--dim", "4", "--cond", "2", "--seed", "9", "--out", str(a)])
    run_cli(["gen", "--dim", "4", "--cond", "2", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_round_trip_full_precision(tmp_path, capsys):
    out = tmp_path / "m.txt"
    run_cli(["gen", "--dim", "4", "--cond", "3", "--seed", "9", "--out", str(out)])
    assert np.array_equal(read_matrix(out), random_pd(4, 3.0, 9))
    capsys.readouterr()
    # Without --out the matrix goes to stdout.
    assert run_cli(["gen", "--dim", "4", "--cond", "3", "--seed", "9"]) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("cond", ["inf", "nan"])
def test_gen_rejects_non_finite_condition(cond, tmp_path, capsys):
    out = tmp_path / "m.txt"
    rc = run_cli(["gen", "--dim", "2", "--cond", cond, "--out", str(out)])
    assert rc == 2
    assert "error: cond_exponent must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_means_seed_env_overrides(tmp_path, monkeypatch):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    monkeypatch.setenv("MEANS_SEED", "77")
    run_cli(["gen", "--dim", "3", "--cond", "1", "--seed", "5", "--out", str(a)])
    monkeypatch.delenv("MEANS_SEED")
    run_cli(["gen", "--dim", "3", "--cond", "1", "--seed", "77", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_check_small_campaign(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    rc = run_cli([
        "check", "--seed", "1", "--dims", "2:3", "--count", "3",
        "--props", "P1,P6,P15", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3 * 3 + 1
    summary = json.loads(lines[-1])
    assert summary["total_failures"] == 0
    stdout = capsys.readouterr().out
    assert "P1: pass=3" in stdout


def test_check_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["check", "--seed", "4", "--dims", "2:3", "--count", "2", "--props", "P2,P7"]
    run_cli(args + ["--out", str(a)])
    run_cli(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_check_csv_format(tmp_path):
    out = tmp_path / "summary.csv"
    rc = run_cli([
        "check", "--seed", "2", "--dims", "2", "--count", "2",
        "--props", "P6,P11", "--format", "csv", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "property_id,pass,fail,marginal,skipped"
    assert lines[1] == "P6,2,0,0,0"


def test_check_zero_count(tmp_path):
    out = tmp_path / "empty.jsonl"
    rc = run_cli(["check", "--count", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["instances"] == 0


def test_check_with_empty_grids_skips_what_checks_nothing(tmp_path, capsys):
    # With no t values and no p grid, P1-P5 and P10 have no sub-inequality
    # left; they are reported as skipped, never as a pass.
    out = tmp_path / "r.jsonl"
    rc = run_cli(["check", "--count", "2", "--t", "", "--p-grid", "", "--out", str(out)])
    assert rc == 0
    rows = [json.loads(ln) for ln in out.read_text().splitlines()]
    empty = {"P1", "P2", "P3", "P4", "P5", "P10"}
    for row in rows[:-1]:
        assert row["status"] == ("skipped" if row["property_id"] in empty else "pass")
    counts = rows[-1]["properties"]
    assert counts["P1"] == {"pass": 0, "fail": 0, "marginal": 0, "skipped": 2}
    assert counts["P9"]["pass"] == 2
    assert "P10: pass=0 fail=0 marginal=0 skipped=2" in capsys.readouterr().out


def test_check_exit_one_on_failure(tmp_path, monkeypatch):
    def always_fails(reads, tr):
        tr.add(-1.0, norm_id="forced")

    monkeypatch.setitem(suite._CATALOGUE, "P1", always_fails)
    rc = run_cli([
        "check", "--seed", "1", "--dims", "2", "--count", "1",
        "--props", "P1", "--out", str(tmp_path / "r.jsonl"),
    ])
    assert rc == 1


def test_check_unwritable_output(tmp_path):
    rc = run_cli([
        "check", "--count", "1", "--dims", "2", "--props", "P6",
        "--out", str(tmp_path / "missing_dir" / "r.jsonl"),
    ])
    assert rc == 2


def test_paper_example_output(capsys):
    assert run_cli(["paper-example"]) == 0
    out = capsys.readouterr().out
    assert "lambda2(geometric)   = 1.000000000" in out
    assert "0.980" in out
    assert "det(geometric)       = 3.000000000" in out
    assert "lambda1(geometric)   = 3.000000000" in out
    assert "PASS" in out


def test_scan_p_equal_matrices_constant_rows(tmp_path, capsys):
    path = tmp_path / "a.txt"
    write_matrix(path, random_pd(3, 1.0, 6))
    rc = run_cli(["scan-p", "--a", str(path), "--b", str(path), "--t", "0.5"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "p,j,lambda"
    by_j = {}
    for row in rows[1:]:
        p, j, lam = row.split(",")
        by_j.setdefault(j, []).append(float(lam))
    # idempotent mean: lambda_j constant across the grid up to rounding
    for vals in by_j.values():
        assert max(vals) - min(vals) <= 1e-9 * (1.0 + abs(vals[0]))


def test_scan_p_reference_pair_monotone(tmp_path):
    a, b = suite.paper_pair()
    pa, pb, out = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "scan.csv"
    write_matrix(pa, a)
    write_matrix(pb, b)
    rc = run_cli(["scan-p", "--a", str(pa), "--b", str(pb), "--t", "0.5", "--out", str(out)])
    assert rc == 0
    cols = {}
    for row in out.read_text().splitlines()[1:]:
        p, j, lam = row.split(",")
        cols.setdefault(int(j), []).append((float(p), float(lam)))
    for j, pairs in cols.items():
        vals = [lam for _, lam in sorted(pairs)]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_scan_p_single_point_grid(tmp_path, capsys):
    path = tmp_path / "a.txt"
    write_matrix(path, random_pd(2, 1.0, 3))
    rc = run_cli(["scan-p", "--a", str(path), "--b", str(path), "--p-grid", "1"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_scan_p_accepts_leading_negative_grid(tmp_path, capsys):
    path = tmp_path / "a.txt"
    write_matrix(path, random_pd(2, 1.0, 3))
    rc = run_cli(["scan-p", "--a", str(path), "--b", str(path), "--p-grid", "-1,0,1"])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 + 3 * 2


def test_scan_p_missing_file(tmp_path, capsys):
    rc = run_cli(["scan-p", "--a", str(tmp_path / "nope.txt"), "--b", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_scan_p_non_pd_input(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1 0\n0 -1\n")
    rc = run_cli(["scan-p", "--a", str(path), "--b", str(path)])
    assert rc == 2
    assert "positive definite" in capsys.readouterr().err


def test_means_identity_pair(tmp_path, capsys):
    path = tmp_path / "i.txt"
    write_matrix(path, np.eye(3))
    rc = run_cli(["means", "--a", str(path), "--b", str(path), "--t", "0.5", "--p", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("geometric", "power", "log-euclidean", "arithmetic", "sandwich", "cross-term"):
        assert f"# {name}" in out
    assert out.count("ky-fan k=1:1 k=2:2 k=3:3") == 6
    # fixed print order
    order = [ln for ln in out.splitlines() if ln.startswith("# ")]
    assert [o.split()[1] for o in order] == list(cli._MEAN_ORDER)
    # The sandwich mean is defined only for p > 0.
    assert run_cli(["means", "--a", str(path), "--b", str(path), "--p", "-1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[lines.index("# sandwich (t=0.5, p=-1)") + 1] == "undefined for p <= 0"


def test_means_commuting_diagonal_matches_scalar(tmp_path, capsys):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_matrix(pa, np.diag([4.0, 1.0]))
    write_matrix(pb, np.diag([1.0, 4.0]))
    rc = run_cli(["means", "--a", str(pa), "--b", str(pb), "--t", "0.5", "--p", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    blocks = out.split("# ")
    geo_block = next(b for b in blocks if b.startswith("geometric"))
    rows = geo_block.splitlines()[2:4]
    got = np.array([[float(v) for v in r.split()] for r in rows])
    assert got == pytest.approx(np.diag([2.0, 2.0]), abs=1e-12)


def test_means_reference_pair_norms_are_chain_ordered(tmp_path, capsys):
    a, b = suite.paper_pair()
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_matrix(pa, a)
    write_matrix(pb, b)
    rc = run_cli(["means", "--a", str(pa), "--b", str(pb), "--t", "0.5", "--p", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    kyfan = {}
    current = None
    for line in out.splitlines():
        if line.startswith("# "):
            current = line.split()[1]
        elif line.startswith("ky-fan"):
            kyfan[current] = [float(tok.split(":")[1]) for tok in line.split()[1:]]
    # printed norms respect the p = 1 chain, every Ky Fan index
    chain = ["geometric", "log-euclidean", "sandwich", "cross-term", "arithmetic"]
    for k in range(2):
        vals = [kyfan[name][k] for name in chain]
        assert all(x <= y + 1e-9 for x, y in zip(vals, vals[1:])), (k, vals)


def test_means_dimension_mismatch(tmp_path, capsys):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_matrix(pa, np.eye(2))
    write_matrix(pb, np.eye(3))
    for command in ("means", "scan-p"):
        assert run_cli([command, "--a", str(pa), "--b", str(pb)]) == 2
        assert "dimension mismatch: (2, 2) vs (3, 3)" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["check", "--badflag"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--props", "P1,P1"], "repeat"),
        (["--dims", ","], "at least one dimension"),
        (["--dims", "1:3"], "dimensions must be >= 2"),
        (["--p-grid", "nan,1"], "p grid must be finite"),
        (["--p-grid", "1,inf"], "p grid must be finite"),
        (["--tol", "nan"], "tolerance must be finite"),
        (["--cond", "inf"], "cond_exponent must be finite"),
        (["--cond", "nan"], "cond_exponent must be finite"),
        (["--count", "0", "--t", "2"], "t values must lie in [0, 1]"),
        (["--props", ""], "at least one property is required"),
        (["--props", ","], "at least one property is required"),
        (["--dims", "5:3"], "bad dimension range"),
        (["--tol", "-1"], "tolerance must be >= 0"),
        (["--cond", "-1"], "cond_exponent must be >= 0"),
    ],
)
def test_check_rejects_bad_campaign_config(tmp_path, capsys, args, message):
    out = tmp_path / "r.jsonl"
    assert run_cli(["check", "--count", "1", "--out", str(out), *args]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_check_past_the_floating_point_range_reports_with_warnings_as_errors(tmp_path):
    # A p grid whose powers overflow fails checks and still writes its
    # report, even when the interpreter turns each RuntimeWarning into an error.
    out = tmp_path / "r.jsonl"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "matmeans.cli", "check",
         "--p-grid", "-1e-300,1e-300", "--count", "4", "--dims", "2:3", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert len(out.read_text().splitlines()) == 4 * len(suite.PROPERTY_IDS) + 1
