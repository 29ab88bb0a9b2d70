#!/usr/bin/env python3
"""CPU time of the two Jacobi loop layouts, with and without eigenvectors.

Solves symmetrized compounds C_k(A) of seeded random positive definite
matrices A (the inputs P8 decomposes), of orders 20 to 70, once per
repeat in each layout (`_sweep_lists`, nested Python lists, and
`_sweep_rows`, numpy rows) and each mode (with eigenvectors and spectrum
only), and prints the median CPU time of each.  The last column is the
order from which the row layout won at every measured order, which is
what `densela._ROW_LAYOUT_ORDER` records for that mode.

    PYTHONPATH=src python scripts/jacobi_layouts.py [--repeats 5]
"""

import argparse
import math
import statistics
import sys
import time

from matmeans import densela
from matmeans.compound import compound_matrix

# (n, k) with C(n, k) = 20, 21, 28, 35, 36, 45, 56, 70.
SHAPES = ((6, 3), (7, 2), (8, 2), (7, 3), (9, 2), (10, 2), (8, 3), (8, 4))
LAYOUTS = (("lists", densela._sweep_lists), ("rows", densela._sweep_rows))


def _compound(n: int, k: int, seed: int):
    c = compound_matrix(densela.random_pd(n, 1.5, seed), k)
    return (c + c.T) * 0.5


def _cpu_s(sweep, a, vectors: bool) -> float:
    threshold = densela.JACOBI_OFF_REL * math.sqrt(float((a * a).sum()))
    t0 = time.process_time()
    sweep(a, threshold, densela.JACOBI_MAX_SWEEPS, vectors)
    return time.process_time() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="solves per order, layout and mode (seeds 1..N)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    print("mode     order  lists_s   rows_s    lists/rows")
    for vectors in (True, False):
        mode = "vectors" if vectors else "spectrum"
        ratios = []
        for n, k in SHAPES:
            inputs = [_compound(n, k, seed) for seed in range(1, args.repeats + 1)]
            med = {
                name: statistics.median(_cpu_s(sweep, a, vectors) for a in inputs)
                for name, sweep in LAYOUTS
            }
            order = math.comb(n, k)
            ratios.append((order, med["lists"] / med["rows"]))
            print(f"{mode:8} {order:5}  {med['lists']:.5f}  {med['rows']:.5f}  "
                  f"{med['lists'] / med['rows']:.2f}")
        crossover = None
        for order, ratio in reversed(ratios):
            if ratio <= 1.0:
                break
            crossover = order
        print(f"{mode:8} rows faster from order {crossover} on "
              f"(current {densela._ROW_LAYOUT_ORDER[vectors]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
