#!/usr/bin/env python3
"""Sweep the exhaustive delta spectrum over growing ranges.

Shows where positive delta values first appear and how the spectrum
shifts as the interval grows.  Deltas are |A+A| - |A-A| over all
nonempty subsets of [0, n].
"""

import argparse

from mstdkit import exhaustive_spectrum


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-range", type=int, default=15)
    args = parser.parse_args()

    for n in range(1, args.max_range + 1):
        rep = exhaustive_spectrum(n, 1, n + 1)
        positive = {d: c for d, c in rep.spectrum.items() if d > 0}
        line = f"[0,{n:2d}] subsets={rep.enumerated:>8}"
        if positive:
            best = max(positive)
            witness = rep.witnesses[best]
            line += (
                f" positive={positive}"
                f" best witness delta={best}: {witness.to_text()}"
            )
        else:
            line += f" no positive delta (min={min(rep.spectrum)})"
        print(line)


if __name__ == "__main__":
    main()
