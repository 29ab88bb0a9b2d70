"""Byte-identity guard for the `check` report.

The digests were taken from the JSONL that `matmeans check` wrote before
the means were computed through the per-instance table; any change in
floating-point evaluation order, error text or serialization moves them.
The `--cond 4` run covers error strings and NaN margins.  The `dim8` run
checks every property at n = 8 except P6, the fixed 2x2 pair, and the
slow P8.  The `p8dim7` and `p8dim8` runs check P8 alone.  Its compounds
are the only decompositions that take the numpy row layout of the Jacobi
sweeps, which starts at order 28 with eigenvectors and at order 56
without: at n = 7 the order-35 solves with eigenvectors take it and the
order-21 ones do not; at n = 8 the order-28 solves with eigenvectors and
every order-56 and order-70 solve take it.  `p8dim7` was taken while
only orders 56 and 70 took that layout.  From n = 8 on, a cumsum total
and `np.sum` round differently for about half of random vectors, so
`dim8` pins the cumsum total as the scale of the majorization margins; it
was taken before those margins moved into `spectra`.
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
    "dim8": (
        ["--seed", "1", "--count", "4", "--dims", "8",
         "--props", "P1,P2,P3,P4,P5,P7,P9,P10,P11,P12,P13,P14,P15"],
        0,
        "e29bb2e31a83431e5d7b1d3966e058ac9eea4b21ada0cf5bab2f40160d9119a6",
    ),
    "p8dim7": (
        ["--seed", "1", "--count", "1", "--dims", "7", "--props", "P8"],
        0,
        "c3d0d1a64ec0e9b989d6c43601ad446d55ad04027a72407209ce9668262200ae",
    ),
    "p8dim8": (
        ["--seed", "1", "--count", "1", "--dims", "8", "--props", "P8"],
        0,
        "d7aef678ceb6048518882cc25656fe8399d4dd65dc636e283d79647c4bfae31c",
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
