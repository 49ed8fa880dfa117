#!/usr/bin/env python3
"""End-to-end demo: group MSTD witnesses carried down to integer MSTD sets.

For each n, find the first covering parity graph in Z/n x Z/2, thicken it
into the lattice until the sumset/difference-set inequality transfers,
and linearize the result into an integer set.  Every output is re-checked
with exact arithmetic: a delta that differs from the reported one is
printed and the script exits with status 1 after the last n.
"""

import argparse
import sys

from mstdkit import EmbedError, embed_report, find_group_mstd, mstd_delta
from mstdkit.cli import _int_arg
from mstdkit.counting import MAX_COUNT_N


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=_int_arg, default=7)
    parser.add_argument("--max-n", type=_int_arg, default=10)
    parser.add_argument("--t-max", type=_int_arg, default=32)
    args = parser.parse_args()
    for name, n in (("--min-n", args.min_n), ("--max-n", args.max_n)):
        if not 2 <= n <= MAX_COUNT_N:
            parser.error(f"{name} must be in [2, {MAX_COUNT_N}]")
    if args.t_max < 1:
        parser.error("--t-max must be at least 1")

    mismatches = 0
    for n in range(args.min_n, args.max_n + 1):
        try:
            witness = find_group_mstd(n, strategy="first")
        except RuntimeError as e:
            print(f"n={n}: {e}")
            continue
        try:
            result = embed_report(witness, t_max=args.t_max)
        except EmbedError as e:
            print(f"n={n}: {e}")
            continue
        check = mstd_delta(result.image)
        print(
            f"n={n}: t={result.t} radix={result.radix} "
            f"|A+A|={check.sum_card} |A-A|={check.diff_card} delta={check.delta}"
        )
        print(f"  set: {result.image.to_text()}")
        if check.delta != result.delta:
            print(f"  MISMATCH: embed reported delta={result.delta}")
            mismatches += 1
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    main()
