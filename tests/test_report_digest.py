"""Byte-identity guard for the `check` report.

The digests in `report_digests.txt` pin the JSONL that `matmeans check`
writes; any change in floating-point evaluation order, error text or
serialization moves them.  `scripts/report_digests.py` runs the same table.
The `cond4` run covers error strings and NaN margins; the `cond8` run
adds `pd_power`'s "matrix is not positive definite: eigenvalue range"
text, which none of the others carries, and the `cond10` run has the
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
descends.  The other runs are larger campaigns over the same regimes:
cond 2.5 to 8, dimensions 2 to 8, other t and p grids, an empty t grid and
a subset of the properties.
"""

import hashlib
import warnings
from pathlib import Path

import pytest

from matmeans import cli

# name -> (args after `check`, exit code, sha256), as scripts/report_digests.py reads them.
PINNED = {
    name: (args, int(rc), digest)
    for name, rc, digest, *args in (
        line.split()
        for line in Path(__file__).with_name("report_digests.txt").read_text().splitlines()
        if line and not line.startswith("#")
    )
}


def _digest(name, tmp_path):
    args, exit_code, _ = PINNED[name]
    out = tmp_path / "report.jsonl"
    assert cli.main(["check", *args, "--out", str(out)]) == exit_code
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_check_report_bytes_are_pinned(name, tmp_path, capsys):
    assert _digest(name, tmp_path) == PINNED[name][2]


def test_cond8_campaign_warns_nothing(tmp_path, capsys):
    # Its groups compute values for members that they then leave out; only
    # a member's own run may warn, and none of this campaign's does.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        digest = _digest("cond8", tmp_path)
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert digest == PINNED["cond8"][2]
