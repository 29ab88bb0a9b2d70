"""Byte-identity guard for the `check` report.

The digests were taken from the JSONL that `matmeans check` wrote before
the means were computed through the per-instance table; any change in
floating-point evaluation order, error text or serialization moves them.
The `--cond 4` run covers error strings and NaN margins.
"""

import hashlib

import pytest

from matmeans import cli

PINNED = {
    "default": (
        ["--seed", "1", "--count", "10", "--dims", "2:6"],
        0,
        "5898a10b54ff5c8b4d455b26b53b9b18b5ff76f1a14f66f59b2cb4b43cdf0293",
    ),
    "cond4": (
        ["--seed", "1", "--count", "10", "--dims", "2:6", "--cond", "4"],
        1,
        "eb104cf55e1f7459b38d743c571d547f77078eb361d0a27228f18b59d1555fde",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_check_report_bytes_are_pinned(name, tmp_path, capsys):
    args, exit_code, digest = PINNED[name]
    out = tmp_path / "report.jsonl"
    rc = cli.main(["check", *args, "--out", str(out)])
    capsys.readouterr()
    assert rc == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
