"""Independent known answers for the benchmark's correctness gate.

Nothing here calls mstdkit: sumsets come from Python sets or a float FFT,
not from the big-int shift-OR kernels the package uses, so a kernel bug
cannot hide behind its own oracle.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

HEGARTY_MIN_SIZE = 8  # the smallest MSTD set has 8 elements (Hegarty 2007)
HEGARTY_SET = [0, 2, 3, 4, 7, 11, 12, 14]


def py_delta(elems) -> int:
    """|A+A| - |A-A| by Python set arithmetic (quadratic; small sets only)."""
    sums = {a + b for a in elems for b in elems}
    diffs = {a - b for a in elems for b in elems}
    return len(sums) - len(diffs)


def fft_delta(elems) -> int:
    """|A+A| - |A-A| from the FFT of the indicator vector.

    Representation counts are at most |A|, far below the float64 error
    scale, so rounding at 0.5 is exact.  The transform length is at least
    2 * span + 1, so circular sums and differences never wrap onto each other.
    """
    a = np.asarray(elems, dtype=np.int64)
    a -= a.min()
    size = 1 << (2 * int(a.max()) + 1).bit_length()
    ind = np.zeros(size)
    ind[a] = 1.0
    f = np.fft.rfft(ind)
    sums = np.fft.irfft(f * f, size)
    diffs = np.fft.irfft(f * np.conj(f), size)
    return int((sums > 0.5).sum()) - int((diffs > 0.5).sum())


def normalized(elems: list[int]) -> list[int]:
    lo = elems[0]
    shifted = [e - lo for e in elems]
    if len(shifted) == 1:
        return [0]
    g = math.gcd(*shifted)
    return [e // g for e in shifted]


def band_size(n: int, lo: int, hi: int) -> int:
    return sum(math.comb(n + 1, s) for s in range(lo, hi + 1))


def brute_spectrum(n: int, lo: int, hi: int) -> tuple[dict, dict, list]:
    """Spectrum, lex-min normalized witnesses and the MSTD subsets of [0, n], by brute force.

    One subset at a time, with Python-int masks: A+A is the OR of the mask
    shifted by each element, A-A the same with mirrored shifts.
    """
    spectrum: Counter = Counter()
    witnesses: dict = {}
    mstd = []
    for mask in range(1 << (n + 1)):
        if not lo <= mask.bit_count() <= hi:
            continue
        elems = [i for i in range(n + 1) if mask >> i & 1]
        sums = diffs = 0
        for e in elems:
            sums |= mask << e
            diffs |= mask << (n - e)
        d = sums.bit_count() - diffs.bit_count()
        spectrum[d] += 1
        if d > 0:
            mstd.append(elems)
        if elems:
            w = normalized(elems)
            if d not in witnesses or w < witnesses[d]:
                witnesses[d] = w
    return dict(spectrum), witnesses, mstd


def parity_graph_sets(n: int, eps) -> tuple[set, set]:
    pts = [(i, e) for i, e in enumerate(eps)]
    sums = {((a + c) % n, (b + d) % 2) for a, b in pts for c, d in pts}
    diffs = {((a - c) % n, (b - d) % 2) for a, b in pts for c, d in pts}
    return sums, diffs


def brute_covering(n: int) -> int:
    """Parity graphs in Z/n x Z/2 whose sumset is the whole group, by brute force."""
    return sum(
        len(parity_graph_sets(n, [(m >> i) & 1 for i in range(n)])[0]) == 2 * n
        for m in range(1 << n)
    )


def miss_closed_form(n: int, b: int, p: int) -> int:
    """Graphs missing (b, p): the sumset misses it iff eps_i + eps_{b-i} = 1 - p for all i.

    With f fixed points of the reflection i -> b - i, that gives
    2^((n+f)/2) graphs for p = 1, and for p = 0 none if f > 0, else 2^(n/2).
    """
    f = sum(1 for i in range(n) if (2 * i) % n == b % n)
    if p == 1:
        return 2 ** ((n + f) // 2)
    return 0 if f else 2 ** (n // 2)


def random_search_report(range_max: int, size: int, trials: int, seed: int) -> dict:
    """Replay ``random_search``'s sampling and score every sample with Python sets."""
    rng = random.Random(seed)
    population = range(range_max + 1)
    spectrum: Counter = Counter()
    witnesses: dict = {}
    for _ in range(trials):
        elems = sorted(rng.sample(population, size))
        d = py_delta(elems)
        spectrum[d] += 1
        w = normalized(elems)
        if d not in witnesses or w < witnesses[d]:
            witnesses[d] = w
    return {
        "range_max": range_max,
        "enumerated": trials,
        "spectrum": {str(d): spectrum[d] for d in sorted(spectrum)},
        "witnesses": {str(d): witnesses[d] for d in sorted(witnesses)},
    }
