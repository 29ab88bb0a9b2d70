"""Byte-identity guard for the `check` report.

The digests pin the JSONL that `matmeans check` writes; any change in
floating-point evaluation order, error text or serialization moves them.
The `--cond 4` run covers error strings and NaN margins; the `--cond 8` run
adds `pd_power`'s "matrix is not positive definite: eigenvalue range"
text, which none of the others carries, and the `--cond 10` run has the
most table grids whose build raises, whose points are read one by one.
The `dim8` run checks every property at n = 8 except P6, the fixed 2x2
pair, and P8.
The `p8dim7` and `p8dim8` runs check P8 alone, whose residual
C_k(G) C_k(A)^-1 C_k(G) - C_k(B) takes the largest compounds of a
campaign, of order up to 70, through `compound_matrix` and one LU solve.
The `default`, `cond4`, `p8dim7` and `p8dim8` digests were re-pinned
when P8 moved to that residual; their other lines kept their bytes.
From n = 8 on, a cumsum total and `np.sum` round differently for about
half of random vectors, so `dim8` pins the cumsum total as the scale of
the majorization margins; it was taken before those margins moved into
`spectra`.
The `ties` run has exact 0.0/-0.0 margins at t = 0 and t = 1, where the
recording order (t, then p, then link, then k) picks the witness; the
`grids` run takes a p grid without the default points and two interior
t values, and `ends` only the endpoints t = 0 and t = 1.
The `groups` run has two chunks whose dimension groups hold 1 to 10
instances, with error rows among them, and a t grid that repeats and
descends.
"""

import hashlib

import pytest

from matmeans import cli

PINNED = {
    "default": (
        ["--seed", "1", "--count", "10", "--dims", "2:6"],
        0,
        "343ff59dcc471dd39641e08bd53b576ceb4929410ce86c41fa312eb9baccf257",
    ),
    "cond4": (
        ["--seed", "1", "--count", "10", "--dims", "2:6", "--cond", "4"],
        1,
        "c2ba0eb8f6e82a5b10294bafbc4183cb96dd95deedfbcf99ef74efa29f226070",
    ),
    "cond8": (
        ["--cond", "8", "--seed", "3", "--count", "20"],
        1,
        "9ae14882094924127527cf35f4fc673d63f7b4efce799c7c4a49f3d77e9b94a3",
    ),
    "cond10": (
        ["--cond", "10", "--seed", "3", "--count", "20"],
        1,
        "86b50119e7f693d6ad73d7cffcfbc2cd197e2631808b6cfb55e718c657e768bd",
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
        "e261f68b7516c45f1e84113ee1405b5267cc687b9fedd097320eb54f889a1b44",
    ),
    "p8dim8": (
        ["--seed", "1", "--count", "1", "--dims", "8", "--props", "P8"],
        0,
        "cbee6b3a4a9575bc215d7cfa2e9068aad1c44247b5b466c7d9f09087b91fd5a6",
    ),
    "ties": (
        ["--cond", "4", "--seed", "31", "--count", "16"],
        1,
        "6e1e6e9b2da68416fde16493b1f32550a438053addd976f4560d96ee236a3f38",
    ),
    "grids": (
        ["--seed", "4", "--count", "12", "--p-grid", "-3,-1,0,0.3,2", "--t", "0.1,0.9"],
        0,
        "7b7a17d42ccd3655b4fc1ba35e720c090e5f64c3f846c5df1e8148c8484170a8",
    ),
    "ends": (
        ["--seed", "6", "--count", "12", "--t", "0,1"],
        0,
        "8e99fe3c4fe2a64a6d7e1d0a217154f20c6d3de2f0d5108e10b9e0af17707e9b",
    ),
    "groups": (
        ["--cond", "8", "--seed", "21", "--count", "40", "--dims", "2:7", "--t", "0.5,0.25,0.5"],
        1,
        "364fc737477265b199295f65110e18802c7f130560084b391741ad51ec9632a7",
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
