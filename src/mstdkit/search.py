"""Exhaustive and randomized exploration of the sum-minus-difference spectrum.

For subsets A of [0, range_max], the quantity of interest is
delta(A) = |A+A| - |A-A|.  The exhaustive scan evaluates every subset in
a size band on uint64 bitmasks: bit x of a sum mask marks x in A+A, and
bit x of a difference mask marks x >= 0 in A-A.  A-A = -(A-A) and
contains 0, so |A-A| = 2 |difference mask| - 1.

The scan enumerates only the masks containing bit 0, half of all masks,
and weights each by range_max - t + 1, where t is its highest bit.  This
is exact: translation by s maps the subsets with minimum 0 and maximum t
one to one onto those with minimum s, which lie in [0, range_max]
exactly for 0 <= s <= range_max - t, and it preserves the size, |A+A|
and |A-A|.  The empty set adds {0: 1} to a band that contains size 0.

Low/high split.  The masks run in chunks of 2^(w-1), where the width w
is _CHUNK_BITS + 1, or range_max + 1 when that is smaller.  The masks of
a chunk share their high bits H (positions w..range_max), and their low
bits L run over every mask below 2^w with bit 0.  Sums and nonnegative
differences split over the two parts:

    A+A          = (L+L) | (H+H) | OR_{h in H} (L + h)
    (A-A) ∩ N    = ((L-L) ∩ N) | ((H-H) ∩ N) | OR_{h in H} (h - L)

since every h exceeds every element of L.  L + h is L << h, and h - L is
the bit-reversed L (bit w-1-x for each x in L) shifted by h - w + 1.  The
tables over L (L, L+L, L-L, reversed L, the top bit of L and L's part of
the witness key) are built on first use for each width, cached and
read-only; H+H and H-H are scalars.  Their rows run by size |L|, ascending
within each size, and ``starts[s]`` is the first row of size s, so the
sizes of L that the band leaves for a chunk are one contiguous slice of
rows.  A chunk takes that slice before it shifts or counts anything (for
a full band it is the whole table, as a view) and costs 2 popcount(H)
shifts of it.  Chunks whose |H| leaves no size of L in the band are
skipped.  In the chunk with H = 0, the weight and the key's top digit
follow the top bit of L, which the ``top`` table gives per row.

Witness key.  On masks with bit 0, element tuples are ordered as strings
of digits over positions 0..range_max, position 0 first, where the digit
is 1 for an element, 2 for a gap below the top and 0 past the top.  Take
two masks and the first position p where they differ, p in A only.  If B
has an element past p, its next element exceeds p, so A's tuple is
smaller, and B's digit at p is 2 against A's 1.  Otherwise B's tuple is a
proper prefix of A's, so B is smaller, and at the first position past
B's top B has 0 where A has 1 or 2; every earlier digit agrees.  At two
bits per digit the key takes 2 range_max + 2 <= 50 bits of a uint64.
The key is 2 at every digit up to the top, less 1 at each element's
digit.  With H not empty, every position of L lies below the top, so the
key of L | H is the key of H less L's table part (1 at each element's
digit) shifted into place.  With H = 0 and top t, it is the key of {t},
with the digit at t raised to 2, less the same.  One ``np.minimum.at``
per chunk keeps the smallest key for each delta, and the witness mask is
decoded from it.

Witness selection per delta is restricted to masks containing 0: every
subset's normalized form (translate to 0, divide by the gcd) lies in the
same size band and has the same delta, so the lexicographically minimal
normalized witness is exactly the minimal mask-with-bit-0 — if that
minimum had a gcd above 1, dividing it out would yield a strictly smaller
enumerated candidate.  The quotient enumerates exactly these masks, so
it leaves the witnesses unchanged.  Chunks merge by adding counts and by
the integer minimum of keys, so the report does not depend on the chunk
size.  The arithmetic is integer throughout.

Random samples.  ``random_search`` draws ``sorted(rng.sample(...))`` and
scores each draw on plain ints, with no ``IntSet`` per sample.  With
s = A - min A and t = max s, the mask is the shift-OR of 1 by s, and
``setops._fold_delta(mask, s, t)``, the counting body ``mstd_delta``
shares, gives |A+A| and |A-A| after ``mstd_delta``'s range and span
checks.  The normalized candidate is s divided by its gcd, compared as a
list, and the least candidate per delta becomes an ``IntSet`` once, at
the end, re-verified by ``mstd_delta``.  The exhaustive tables keep A+A in uint64 lanes, which
caps them at MAX_RANGE, while a sample may span any range the kernel
takes (range_max = 40 already gives 81-bit sums) and costs |A| big-int
shifts, so the two scorers stay separate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .setops import I64_MAX, IntSet, _bit_positions, _check_i64, _check_span, _shift_or
from .setops import _fold_delta, _strict_int, mstd_delta

MAX_RANGE = 24

# log2 of the masks per chunk; the tables then have 2^14 entries each
_CHUNK_BITS = 14

_ONE = np.uint64(1)


@dataclass(frozen=True)
class SearchReport:
    """Spectrum of delta values with minimal witnesses."""

    range_max: int
    spectrum: dict
    witnesses: dict
    enumerated: int

    def to_dict(self) -> dict:
        return {
            "range_max": self.range_max,
            "enumerated": self.enumerated,
            "spectrum": {str(d): self.spectrum[d] for d in sorted(self.spectrum)},
            "witnesses": {
                str(d): list(self.witnesses[d].elements)
                for d in sorted(self.witnesses)
            },
        }

    def to_csv(self) -> str:
        lines = ["delta,count,witness"]
        for d in sorted(self.spectrum):
            witness = self.witnesses.get(d)
            text = witness.to_text() if witness is not None else ""
            lines.append(f"{d},{self.spectrum[d]},{text}")
        return "\n".join(lines) + "\n"


def _lex_key(mask: int, range_max: int) -> int:
    """Witness key of a mask over positions 0..range_max (module docstring)."""
    key = 0
    for p in range(range_max + 1):
        rest = mask >> p
        key = 4 * key + (2 if rest else 0) - (rest & 1)
    return key


def _key_mask(key: int, range_max: int) -> int:
    """The mask that ``_lex_key`` maps to ``key``: digit 1 marks an element."""
    mask = 0
    for p in range(range_max + 1):
        if (key >> 2 * (range_max - p)) & 3 == 1:
            mask |= 1 << p
    return mask


@dataclass(frozen=True)
class _LowTables:
    """Read-only tables over L, the masks below 2^width with bit 0.

    Rows run by size |L|, ascending within each size; the rows of size s
    are ``starts[s]:starts[s + 1]`` for 1 <= s <= width.
    """

    low: np.ndarray  # L
    sums: np.ndarray  # L+L: bit x + y
    diffs: np.ndarray  # L-L: bit x - y for x >= y
    rev: np.ndarray  # bit width - 1 - x for each x in L
    top: np.ndarray  # max L, as uint8
    key: np.ndarray  # 1 at the key digit of each x in L: bits 2 (width - 1 - x)
    starts: tuple  # first row of each size 0..width + 1; no row has size 0


@lru_cache(maxsize=None)
def _low_tables(width: int) -> _LowTables:
    low = (np.arange(1 << (width - 1), dtype=np.uint64) << _ONE) | _ONE
    size = np.bitwise_count(low)
    order = np.argsort(size, kind="stable")
    low, size = low[order], size[order]
    sums = np.zeros_like(low)
    diffs = np.zeros_like(low)
    rev = np.zeros_like(low)
    key = np.zeros_like(low)
    top = np.zeros(len(low), dtype=np.uint8)
    for b in range(width):
        bit = (low >> np.uint64(b)) & _ONE
        sel = -bit  # all ones where bit b is set
        sums |= (low << np.uint64(b)) & sel
        diffs |= (low >> np.uint64(b)) & sel
        rev |= bit << np.uint64(width - 1 - b)
        key |= bit << np.uint64(2 * (width - 1 - b))
        top[bit == _ONE] = b
    starts = tuple(np.searchsorted(size, np.arange(width + 2)).tolist())
    tables = _LowTables(low, sums, diffs, rev, top, key, starts)
    for arr in (low, sums, diffs, rev, top, key):
        arr.flags.writeable = False
    return tables


def _scan_chunk(
    high: int,
    width: int,
    range_max: int,
    min_size: int,
    max_size: int,
    counts: np.ndarray,
    best: np.ndarray,
) -> None:
    """Add the masks high | L in the size band to the weighted delta counts
    and the least witness keys, both indexed by delta + 2 range_max."""
    hs = [h for h in range(width, range_max + 1) if high >> h & 1]
    lo_size, hi_size = min_size - len(hs), max_size - len(hs)
    if hi_size < 1 or lo_size > width:
        return
    tables = _low_tables(width)
    # the rows whose size |L| lies in [lo_size, hi_size]
    rows = slice(tables.starts[max(lo_size, 1)], tables.starts[min(hi_size, width) + 1])
    low, rev = tables.low[rows], tables.rev[rows]
    hh = hd = 0
    for a in hs:
        for b in hs:
            hh |= 1 << (a + b)
            hd |= 1 << abs(a - b)
    sums = tables.sums[rows] | np.uint64(hh)
    diffs = tables.diffs[rows] | np.uint64(hd)
    for h in hs:
        sums |= low << np.uint64(h)
        diffs |= rev << np.uint64(h - width + 1)  # h - x for x in L
    # |A-A| = 2 |diffs| - 1, so delta + 2 range_max fits uint8 at every step
    delta = np.bitwise_count(sums)
    delta += 2 * range_max + 1
    delta -= np.bitwise_count(diffs)
    delta -= np.bitwise_count(diffs)
    # L's key digits are positions 0..width-1, above H's in significance
    low_digits = tables.key[rows] << np.uint64(2 * (range_max - width + 1))
    if hs:
        # every position of L lies below H's top, where H's key has digit 2
        np.minimum.at(best, delta, np.uint64(_lex_key(high, range_max)) - low_digits)
        counts += np.bincount(delta, minlength=len(counts)) * (range_max - hs[-1] + 1)
        return
    top = tables.top[rows]
    # per top t: the key of {t} with the digit at t raised to 2, as for a gap
    top_keys = np.array(
        [_lex_key(1 << t, range_max) + (1 << 2 * (range_max - t)) for t in range(width)],
        dtype=np.uint64,
    )
    np.minimum.at(best, delta, top_keys[top] - low_digits)
    # masks per (delta, top), each weighted by its range_max - top + 1 translates
    per_top = np.bincount(delta.astype(np.intp) * width + top, minlength=len(counts) * width)
    counts += per_top.reshape(len(counts), width) @ (range_max + 1 - np.arange(width))


def _band_size(range_max: int, min_size: int, max_size: int) -> int:
    return sum(math.comb(range_max + 1, s) for s in range(min_size, max_size + 1))


def exhaustive_spectrum(range_max: int, min_size: int, max_size: int) -> SearchReport:
    """Evaluate delta for every subset of [0, range_max] in the size band.

    The spectrum maps each delta value to the number of subsets attaining
    it; witnesses map each delta to the lexicographically minimal
    normalized subset attaining it (absent only for the empty-set band).
    Deterministic, and independent of the chunk size.
    """
    range_max = _strict_int("range_max", range_max)
    min_size = _strict_int("min_size", min_size)
    max_size = _strict_int("max_size", max_size)
    if not 0 <= range_max <= MAX_RANGE:
        raise ValueError(f"range_max must be in [0, {MAX_RANGE}]")
    if not 0 <= min_size <= max_size <= range_max + 1:
        raise ValueError("need 0 <= min_size <= max_size <= range_max + 1")
    enumerated = _band_size(range_max, min_size, max_size)
    width = min(_CHUNK_BITS, range_max) + 1
    # indexed by delta + 2 range_max, for delta in [-2 range_max, 2 range_max]
    counts = np.zeros(4 * range_max + 1, dtype=np.int64)
    best = np.full(len(counts), np.iinfo(np.uint64).max, dtype=np.uint64)
    for high in range(0, 2 << range_max, 1 << width):
        _scan_chunk(high, width, range_max, min_size, max_size, counts, best)
    spectrum: dict = {0: 1} if min_size == 0 else {}
    witnesses = {}
    for i in np.flatnonzero(counts).tolist():
        v = i - 2 * range_max
        spectrum[v] = spectrum.get(v, 0) + int(counts[i])
        mask = _key_mask(int(best[i]), range_max)
        w = IntSet._from_sorted(_bit_positions(mask).tolist())
        if mstd_delta(w).delta != v:  # pragma: no cover - internal consistency
            raise RuntimeError(f"witness {w} does not verify to delta {v}")
        witnesses[v] = w
    return SearchReport(
        range_max=range_max,
        spectrum=spectrum,
        witnesses=witnesses,
        enumerated=enumerated,
    )


def random_search(range_max: int, size: int, trials: int, seed: int) -> SearchReport:
    """Sample fixed-size subsets of [0, range_max] uniformly with a seeded RNG.

    The same seed reproduces the identical report.  Witnesses are the
    lexicographically minimal normalized forms among the sampled sets.
    Each sample is scored on its shifted mask (module docstring).
    ``range_max`` may be at most ``I64_MAX - 1``, the largest range the
    sampler takes; a larger one raises ValueError before any draw.
    """
    range_max = _strict_int("range_max", range_max)
    size = _strict_int("size", size)
    trials = _strict_int("trials", trials)
    seed = _strict_int("seed", seed)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if range_max > I64_MAX - 1:
        raise ValueError(f"range_max must be at most {I64_MAX - 1}")
    if not 1 <= size <= range_max + 1:
        raise ValueError("size must be in [1, range_max + 1]")
    rng = random.Random(seed)
    population = range(range_max + 1)
    spectrum: dict = {}
    best: dict = {}  # delta -> least normalized sample, as a list
    for _ in range(trials):
        elems = sorted(rng.sample(population, size))
        lo, hi = elems[0], elems[-1]
        # mstd_delta's checks; elements are nonnegative, so these imply the rest
        _check_i64(2 * hi)
        _check_span(2 * (hi - lo))
        s = [e - lo for e in elems]
        d = _fold_delta(_shift_or(1, s), s, hi - lo).delta
        spectrum[d] = spectrum.get(d, 0) + 1
        g = math.gcd(*s)
        if g > 1:
            s = [e // g for e in s]
        if d not in best or s < best[d]:
            best[d] = s
    witnesses = {}
    for d, s in best.items():
        w = IntSet._from_sorted(s)
        if mstd_delta(w).delta != d:  # pragma: no cover - internal consistency
            raise RuntimeError(f"witness {w} does not verify to delta {d}")
        witnesses[d] = w
    return SearchReport(
        range_max=range_max,
        spectrum=spectrum,
        witnesses=witnesses,
        enumerated=trials,
    )
