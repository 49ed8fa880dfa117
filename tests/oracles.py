"""Independent brute-force oracles used to cross-check the library kernels.

Everything here enumerates directly (pairs/tuples with set comprehensions,
or all 2^n parity graphs) and never touches the code paths under test.
"""

import itertools
import math
import random

import numpy as np

from mstdkit import IntSet


def brute_sumset(a, b) -> set:
    return {x + y for x in a for y in b}


def brute_diffset(a, b) -> set:
    return {x - y for x in a for y in b}


def pair_delta(elems, block=256) -> int:
    """|A+A| - |A-A| by enumerating every pair, ``block`` rows of them at a time.

    Each pairwise sum and difference, moved to be nonnegative, marks its
    slot in a boolean array, so a set of a few thousand elements needs no
    Python set of millions of pairs."""
    a = np.asarray(sorted(elems), dtype=np.int64)
    a -= a[0]
    top = int(a[-1])
    sums = np.zeros(2 * top + 1, dtype=bool)
    diffs = np.zeros(2 * top + 1, dtype=bool)
    for i in range(0, len(a), block):
        rows = a[i : i + block]
        sums[np.add.outer(rows, a)] = True
        diffs[np.subtract.outer(rows, a) + top] = True
    return int(sums.sum()) - int(diffs.sum())


def brute_sum_diff(a, h, k) -> set:
    """hA - kA by direct enumeration of (h+k)-tuples."""
    elems = list(a)
    out = set()
    for plus in itertools.product(elems, repeat=h):
        for minus in itertools.product(elems, repeat=k):
            out.add(sum(plus) - sum(minus))
    return out


def brute_group_fold(elements, moduli, h, k) -> set:
    """hA - kA in the product group, by direct enumeration."""
    acc = {tuple(0 for _ in moduli)}
    for sign in (1,) * h + (-1,) * k:
        acc = {
            tuple((u + sign * v) % m for u, v, m in zip(x, p, moduli))
            for x in acc
            for p in elements
        }
    return acc


def brute_lattice_fold(points, h, k) -> set:
    """hS - kS in Z^d, by direct enumeration."""
    dim = len(next(iter(points)))
    acc = {tuple([0] * dim)}
    for sign in (1,) * h + (-1,) * k:
        acc = {
            tuple(x + sign * y for x, y in zip(u, p)) for u in acc for p in points
        }
    return acc


def enumerate_covering(n):
    """(covering count, {(b, p): miss count}) over all 2^n parity graphs of Z/n x Z/2.

    Vectorized bitmask scan: the sumset misses (b, 1) exactly when the mask
    equals its b-reflection, and (b, 0) when it equals that reflection's
    complement.  Chunked so peak memory stays modest at n = 24.
    """
    chunk = 1 << 20
    full = np.uint64((1 << n) - 1)
    covering = 0
    misses = {(b, p): 0 for b in range(n) for p in (0, 1)}
    for lo in range(0, 1 << n, chunk):
        masks = np.arange(lo, min(lo + chunk, 1 << n), dtype=np.uint64)
        r = masks & np.uint64(1)  # bit i of r is bit (n - i) mod n of the mask
        for i in range(1, n):
            r |= ((masks >> np.uint64(n - i)) & np.uint64(1)) << np.uint64(i)
        covered = np.ones(len(masks), dtype=bool)
        for b in range(n):
            w = ((r << np.uint64(b)) | (r >> np.uint64(n - b))) & full
            eq_odd = masks == w
            eq_even = masks == (w ^ full)
            misses[(b, 1)] += int(eq_odd.sum())
            misses[(b, 0)] += int(eq_even.sum())
            covered &= ~(eq_odd | eq_even)
        covering += int(covered.sum())
    return covering, misses


def _lex_key(mask: int, range_max: int) -> int:
    """Witness key of a mask over positions 0..range_max (``search`` module
    docstring): digit 2 at every position through the top, less 1 at each element."""
    # 2 (4^(range_max + 1) - 4^(range_max - top)) / 3 has digit 2 at positions
    # 0..top; the mask's binary digits reversed, read in base 4, have digit 1
    # at each element
    top = mask.bit_length() - 1
    through_top = 2 * ((4 << 2 * range_max) - (1 << 2 * (range_max - top))) // 3
    return through_top - int(f"{mask:0{range_max + 1}b}"[::-1], 4)


def random_draws(range_max, size, seed):
    """The sorted samples ``random_search`` scores, in order (endless)."""
    rng = random.Random(seed)
    population = range(range_max + 1)
    while True:
        yield sorted(rng.sample(population, size))


def score_batch(draws) -> dict:
    """{delta: (tally, least normalized sample)} over the samples ``draws``,
    scored with Python sets; a normalized sample is A - min A divided by its
    gcd, as a sorted list."""
    scored = {}
    for row in draws:
        elems = sorted(row)
        d = len(brute_sumset(elems, elems)) - len(brute_diffset(elems, elems))
        shifted = [e - elems[0] for e in elems]
        g = math.gcd(*shifted) or 1  # a singleton shifts to [0], whose gcd is 0
        w = [e // g for e in shifted]
        tally, least = scored.get(d, (0, w))
        scored[d] = (tally + 1, min(least, w))
    return scored


def replay_random_search(range_max, size, trials, seed) -> dict:
    """``random_search(...).to_dict()``, scoring each draw with Python sets."""
    scored = score_batch(itertools.islice(random_draws(range_max, size, seed), trials))
    return {
        "range_max": range_max,
        "enumerated": trials,
        "spectrum": {str(d): scored[d][0] for d in sorted(scored)},
        "witnesses": {str(d): scored[d][1] for d in sorted(scored)},
    }


def as_intset(elems) -> IntSet:
    return IntSet(sorted(elems))
