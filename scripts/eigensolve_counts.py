#!/usr/bin/env python3
"""Count the eigensolves of the benchmark's `check` jobs, by kernel path.

Wraps `sym_eigen` and `sym_eigen_batch` wherever a loaded `matmeans`
module binds them, runs every job of three workload shapes in this
process and prints, per shape, three counts:

    list     `sym_eigen` calls made outside `sym_eigen_batch`
    stacked  matrices that the stacked kernel of `sym_eigen_batch` solves
    looped   matrices that `sym_eigen_batch` hands to `sym_eigen`

The jobs are `check` runs at master seeds 1000k + d for k = 1..10:

    ref-corpus  --dims d --count 6, d = 2..6
    high-dim    --dims d --count 1, d = 7, 8
    ill-cond    the ref-corpus jobs with --cond 4

Host noise hides small changes in time; these counts do not move with the
host.  Each workload counts the solves of the built-in P6 pair, which a
process makes once.  Run from the root of a checkout, once per checkout,
and compare:

    PYTHONPATH=src python3 scripts/eigensolve_counts.py
"""

import contextlib
import io
import os
import sys
import tempfile

from matmeans import cli, densela, suite

WORKLOADS = {
    "ref-corpus": [((), d, 6) for d in range(2, 7)],
    "high-dim": [((), d, 1) for d in (7, 8)],
    "ill-cond": [(("--cond", "4"), d, 6) for d in range(2, 7)],
}


class Tally:
    """Eigensolves by path, counted by the kernels that :meth:`install` wraps."""

    def __init__(self):
        self.counts = dict.fromkeys(("list", "stacked", "looped"), 0)
        self._in_batch = 0

    def _sym_eigen(self, real):
        def sym_eigen(*args, **kwargs):
            self.counts["looped" if self._in_batch else "list"] += 1
            return real(*args, **kwargs)

        return sym_eigen

    def _sym_eigen_batch(self, real):
        def sym_eigen_batch(mats, *args, **kwargs):
            looped = self.counts["looped"]
            self._in_batch += 1
            try:
                return real(mats, *args, **kwargs)
            finally:
                self._in_batch -= 1
                self.counts["stacked"] += len(mats) - (self.counts["looped"] - looped)

        return sym_eigen_batch

    def bindings(self) -> list[tuple]:
        """``(module, attr, wrapper)`` for each name that a loaded matmeans module
        binds to a kernel: the wrapper counts the kernel's solves into this tally."""
        counted = {densela.sym_eigen: self._sym_eigen(densela.sym_eigen),
                   densela.sym_eigen_batch: self._sym_eigen_batch(densela.sym_eigen_batch)}
        return [(module, attr, counted[value])
                for name, module in list(sys.modules.items())
                if name == "matmeans" or name.startswith("matmeans.")
                for attr, value in list(vars(module).items())
                if callable(value) and value in counted]

    def install(self) -> None:
        """Rebind both kernels, counted, wherever a loaded matmeans module binds them."""
        for module, attr, wrapper in self.bindings():
            setattr(module, attr, wrapper)


def main() -> int:
    tally = Tally()
    tally.install()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.jsonl")
        for name, jobs in WORKLOADS.items():
            counts = tally.counts = dict.fromkeys(tally.counts, 0)
            suite.paper_counterexample.cache_clear()  # counted in each workload, as alone
            for k in range(1, 11):
                for extra, d, count in jobs:
                    args = ["check", "--seed", str(1000 * k + d), "--dims", str(d),
                            "--count", str(count), *extra, "--out", out]
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.main(args)
            print(f"{name}: list {counts['list']}  stacked {counts['stacked']}  "
                  f"looped {counts['looped']}  total {sum(counts.values())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
