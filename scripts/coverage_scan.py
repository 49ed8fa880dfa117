#!/usr/bin/env python3
"""Tabulate covering counts for parity graphs in Z/n x Z/2.

Every covering graph is a group MSTD subset, so the covering fraction
lower-bounds how common MSTD subsets are in this family.  The table
shows the exact count (from the closed form in mstdkit.counting, so any
n up to 4096 is quick) against the union bound and the fraction of all
2^n graphs.
"""

import argparse

from mstdkit import count_covering
from mstdkit.cli import _int_arg
from mstdkit.counting import MAX_COUNT_N


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=_int_arg, default=4)
    parser.add_argument("--max-n", type=_int_arg, default=18)
    args = parser.parse_args()
    for name, n in (("--min-n", args.min_n), ("--max-n", args.max_n)):
        if not 2 <= n <= MAX_COUNT_N:
            parser.error(f"{name} must be in [2, {MAX_COUNT_N}]")

    print(f"{'n':>3} {'covering':>10} {'bound':>10} {'fraction':>9}")
    for n in range(args.min_n, args.max_n + 1):
        rep = count_covering(n)
        frac = rep.covering / 2**n
        print(f"{n:>3} {rep.covering:>10} {rep.bound:>10} {frac:>9.5f}")


if __name__ == "__main__":
    main()
