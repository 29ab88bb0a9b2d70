#!/usr/bin/env python3
"""Print `<exit code> <sha256> <args>` of the `check` JSONL for each byte-identity run.

The runs and their pinned digests are the table tests/report_digests.txt.
Exits 1, naming the runs on stderr, if a run differs from its pin.  Run
from two checkouts and `diff` the outputs:
    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from matmeans import cli

TABLE = Path(__file__).resolve().parent.parent / "tests" / "report_digests.txt"

moved = []
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "report.jsonl")
    for line in TABLE.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        name, want_rc, want, *args = line.split()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["check", *args, "--out", out])
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        print(rc, digest, " ".join(args), flush=True)
        if (str(rc), digest) != (want_rc, want):
            moved.append(name)
if moved:
    sys.exit(f"differ from the pinned table: {', '.join(moved)}")
