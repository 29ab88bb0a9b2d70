#!/usr/bin/env python3
"""Print `<exit code> <sha256> <args>` of the `check` JSONL for each byte-identity run.

Run from two checkouts and `diff` the outputs:
    PYTHONPATH=src python3 scripts/report_digests.py > digests.txt
"""

import contextlib
import hashlib
import io
import os
import tempfile

from matmeans import cli

RUNS = """--seed 1 --count 100|--cond 4 --seed 1 --count 60|--cond 8 --seed 3 --count 20
--cond 2.5 --seed 7 --count 40|--cond 6 --seed 11 --count 30|--seed 1 --count 2 --dims 7:8
--seed 5 --count 3 --dims 8|--seed 9 --count 60 --dims 2:4 --t 0,0.3,0.5,1
--cond 8 --seed 1 --count 40|--cond 3 --seed 2 --count 40 --dims 2:8
--seed 4 --count 40 --p-grid -3,-1,0,0.3,2 --t 0.1,0.9|--seed 6 --count 40 --t 0,1
--seed 8 --count 35 --t= --p-grid 1|--cond 5 --seed 12 --count 40 --props P3,P5,P7
--seed 13 --count 70 --dims 3|--cond 4 --seed 100 --count 45 --dims 2,5
--cond 10 --seed 3 --count 20|--cond 4 --seed 31 --count 16
--cond 8 --seed 21 --count 40 --dims 2:7 --t 0.5,0.25,0.5"""

with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "report.jsonl")
    for args in RUNS.replace("\n", "|").split("|"):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["check", *args.split(), "--out", out])
        with open(out, "rb") as fh:
            print(rc, hashlib.sha256(fh.read()).hexdigest(), args, flush=True)
