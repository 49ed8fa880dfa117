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
read-only; H+H and H-H are scalars.  Their rows come in two blocks, the
masks with bit 1 set (block 1) and then those without it (block 0).
Within a block rows run by size |L|, ascending within each size, and
``starts[b][s]`` is the first row of size s in block b, so the sizes of L
that the band leaves for a chunk are one contiguous slice of rows per
block.  A chunk takes those slices before it shifts or counts anything,
and costs 2 popcount(H) shifts of each.  In a full band the two slices
are adjacent, the whole table as a view, and a chunk makes one pass; a
band cut below or above makes two.  Chunks whose |H| leaves no size of L
in the band are skipped.  In the chunk with H = 0, the weight and the
key's top digit follow the top bit of L, which the ``top`` table gives
per row.  The key table shifted into place and the top keys are built
once per scan.

Mirror pairs.  The reflection R(A) = T - A, with T = max A, maps the
masks with bit 0 and top T onto themselves and keeps the size, the
translate weight, |A+A| and |A-A|.  If bit 1 is clear and bit T-1 set in
A (T >= 3), then in R(A) bit 1 is set and bit T-1 clear, so R(A) differs
from A; and R(A) comes first in witness order, since the two agree at
position 0 and at position 1 R(A) has an element where A has a gap.  R
maps the one class onto the other, so the scan skips the first class
and counts the second at twice its weight, and the least witness of
each delta is unchanged.  Masks with bits 1 and T-1 both set or both
clear keep their usual weight.  In a chunk with T - 1 >= w, bit T-1 is a
high bit: when it is in H the chunk scans block 1 only, and when it is
not the chunk scans block 1 at twice the weight and block 0 at the
weight.  The chunk with H = 0 and the one with H = {w}, where T - 1 is a
table bit, scan both blocks at the usual weights.  This skips about a
quarter of the rows of a full band.

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
per pass keeps the smallest key for each delta, and the witness mask is
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
keeps the least normalized sample per delta (s = A - min A divided by its
gcd, compared as a list), which becomes an ``IntSet`` once, at the end,
re-verified by ``mstd_delta``.  With range_max <= 63, A's shifted mask and
the nonnegative half of A-A fit one uint64 lane and A+A two, so the draws
are scored a batch at a time: up to 2^_CHUNK_BITS sample elements, the
working set of one spectrum chunk.  Each row is sorted and shifted to 0,
m = OR_j 1 << s_j, and for each column e

    lo |= m << e,   hi |= (m >> 1) >> (63 - e),   dif |= m >> e,

where hi holds the bits of A+A from 64 up (m >> (64 - e), written so no
shift reaches 64), and delta = |lo| + |hi| - (2 |dif| - 1).  The samples
come in the same order whatever the batch size (replayed draws, below),
so the report does not depend on it.  ``mstd_delta``'s range and span
checks grow with max A and with the span, and every sample lies in
[0, range_max], so one check of the whole range before the first draw
covers every sample.  Above 63 each
sample is scored on plain ints: its mask is the shift-OR of 1 by s, and
``setops._fold_delta(mask, s, max s)``, the counting body ``mstd_delta``
shares, gives |A+A| and |A-A| after ``mstd_delta``'s checks on that
sample, which raise at the first failing trial.  Both scorers cost O(|A|)
shifts per sample, while the exhaustive tables enumerate whole bands,
which caps them at MAX_RANGE.

Replayed draws.  With range_max <= 63 the lanes take their samples from
``_PoolReplay``, which makes the draws of ``rng.sample(range(n), k)``,
n = range_max + 1, without calling it, in CPython's pool branch: n at
most setsize = 21, plus 4^ceil(log4(3k)) when k > 5.  That branch keeps a
pool of the n values and, for step i < k, takes j = randbelow(n - i),
emits pool[j] and moves pool[n - i - 1] into its place.  randbelow(m)
reads one 32-bit Mersenne Twister word per try, keeps its top
b = m.bit_length() bits and tries again while they are >= m.
``rng.getrandbits(32 W)`` returns the next W words of the same stream,
word j at bits [32j, 32j + 32).  As n <= 64, b <= 7: the replay keeps
only each word's top byte (byte 4j + 3 of the little-endian bytes) and
translates those bytes into one string of top b bits per b in use.  A
Python loop walks the strings, one try per word, for the accepted j; the
pool swaps then run on a (rows, n) uint8 array a column at a time.
Words left unread carry over to the next batch.  A sample that runs out
of words starts again once more words of the stream are drawn, so a
shortfall never skips or changes a draw.  The rng is private to
``random_search``, so the words drawn past the last sample change
nothing.  ``_replays_sample`` checks the replay against ``rng.sample`` on
a fixed seed, once per (n, k) and process; where they differ, as on an
interpreter whose sampler draws otherwise, and in the set branch
(n > setsize), the lanes call ``rng.sample``, as does the scorer above 63.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .setops import I64_MAX, IntSet, _bit_positions, _check_sum_diff, _fold_delta, _shift_or
from .setops import _strict_int, mstd_delta

if TYPE_CHECKING:
    import numpy as np

MAX_RANGE = 24

# log2 of the masks per chunk; the tables then have 2^14 entries each
_CHUNK_BITS = 14

# the samples on which _replays_sample compares the replay with rng.sample
_PROBE_SEED = 20260809
_PROBE_SAMPLES = 8


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
    return sum(1 << p for p in range(range_max + 1) if key >> 2 * (range_max - p) & 3 == 1)


@dataclass(frozen=True)
class _LowTables:
    """Read-only tables over L, the masks below 2^width with bit 0.

    The rows with bit 1 set come first (block 1), then the rows with bit 1
    clear (block 0); within each block rows run by size |L|, ascending
    within each size.  The rows of block b with size s are
    ``starts[b][s]:starts[b][s + 1]`` for 1 <= s <= width.
    """

    low: np.ndarray  # L
    sums: np.ndarray  # L+L: bit x + y
    diffs: np.ndarray  # L-L: bit x - y for x >= y
    rev: np.ndarray  # bit width - 1 - x for each x in L
    top: np.ndarray  # max L, as uint8
    key: np.ndarray  # 1 at the key digit of each x in L: bits 2 (width - 1 - x)
    starts: tuple  # per block b: first row of each size 0..width + 1


@lru_cache(maxsize=None)
def _low_tables(width: int) -> _LowTables:
    import numpy as np

    one = np.uint64(1)
    low = (np.arange(1 << (width - 1), dtype=np.uint64) << one) | one
    size = np.bitwise_count(low)
    bit1 = (low >> one) & one
    # block 1 before block 0, each by size
    order = np.argsort(size + (width + 2) * (1 - bit1), kind="stable")
    low, size = low[order], size[order]
    sums = np.zeros_like(low)
    diffs = np.zeros_like(low)
    rev = np.zeros_like(low)
    key = np.zeros_like(low)
    top = np.zeros(len(low), dtype=np.uint8)
    for b in range(width):
        bit = (low >> np.uint64(b)) & one
        sel = -bit  # all ones where bit b is set
        sums |= (low << np.uint64(b)) & sel
        diffs |= (low >> np.uint64(b)) & sel
        rev |= bit << np.uint64(width - 1 - b)
        key |= bit << np.uint64(2 * (width - 1 - b))
        top[bit == one] = b
    split = int(np.count_nonzero(bit1))
    sizes = np.arange(width + 2)
    starts = (
        tuple((split + np.searchsorted(size[split:], sizes)).tolist()),
        tuple(np.searchsorted(size[:split], sizes).tolist()),
    )
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
    low_digits: np.ndarray,
    top_keys: np.ndarray,
    counts: np.ndarray,
    best: np.ndarray,
) -> None:
    """Add the masks high | L in the size band to the weighted delta counts
    and the least witness keys, both indexed by delta + 2 range_max.

    ``low_digits`` is the key table shifted to L's digits and ``top_keys``
    the key of each top t of L when H = 0 (``exhaustive_spectrum``)."""
    import numpy as np

    hs = [h for h in range(width, range_max + 1) if high >> h & 1]
    lo_size, hi_size = min_size - len(hs), max_size - len(hs)
    if hi_size < 1 or lo_size > width:
        return
    tables = _low_tables(width)
    # per block: the rows whose size |L| lies in [lo_size, hi_size]
    band = [(s[max(lo_size, 1)], s[min(hi_size, width) + 1]) for s in tables.starts]
    weight = range_max - hs[-1] + 1 if hs else None  # None: by the top of L
    if hs and hs[-1] - 1 >= width:
        # mirror pairs (module docstring): bit T-1 is a high bit
        if high >> (hs[-1] - 1) & 1:
            passes = [(band[1], weight)]
        else:
            passes = [(band[1], 2 * weight), (band[0], weight)]
    else:
        passes = [(band[1], weight), (band[0], weight)]
    # one scan per run of adjacent slices: (start, stop, [(stop, weight)...])
    scans: list = []
    for (start, stop), w in passes:
        if start == stop:
            continue
        if scans and scans[-1][1] == start:
            scans[-1][1] = stop
            scans[-1][2].append((stop, w))
        else:
            scans.append([start, stop, [(stop, w)]])
    hh = hd = 0
    for a in hs:
        for b in hs:
            hh |= 1 << (a + b)
            hd |= 1 << abs(a - b)
    for start, stop, parts in scans:
        rows = slice(start, stop)
        low, rev = tables.low[rows], tables.rev[rows]
        sums = tables.sums[rows] | np.uint64(hh)
        diffs = tables.diffs[rows] | np.uint64(hd)
        for h in hs:
            sums |= low << np.uint64(h)
            diffs |= rev << np.uint64(h - width + 1)  # h - x for x in L
        # |A-A| = 2 |diffs| - 1, so delta + 2 range_max fits uint8 at every step
        delta = np.bitwise_count(sums)
        delta += 2 * range_max + 1
        diff_card = np.bitwise_count(diffs)
        delta -= diff_card
        delta -= diff_card
        # freed before the index and key arrays are built, so the allocator
        # reuses their memory (n = 21 runs about 1.5x faster in a fresh process)
        del sums, diffs
        delta = delta.astype(np.intp)
        if hs:
            # every position of L lies below H's top, where H's key has digit 2
            high_key = np.uint64(_lex_key(high, range_max))
            np.minimum.at(best, delta, high_key - low_digits[rows])
            done = 0
            for end, w in parts:
                part = delta[done : end - start]
                counts += np.bincount(part, minlength=len(counts)) * w
                done = end - start
            continue
        top = tables.top[rows]
        np.minimum.at(best, delta, top_keys[top] - low_digits[rows])
        # masks per (delta, top), each weighted by its range_max - top + 1 translates
        per_top = np.bincount(delta * width + top, minlength=len(counts) * width)
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
    import numpy as np

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
    # L's key digits are positions 0..width-1, above H's in significance
    low_digits = _low_tables(width).key << np.uint64(2 * (range_max - width + 1))
    # per top t: the key of {t} with the digit at t raised to 2, as for a gap
    top_keys = np.array(
        [_lex_key(1 << t, range_max) + (1 << 2 * (range_max - t)) for t in range(width)],
        dtype=np.uint64,
    )
    for high in range(0, 2 << range_max, 1 << width):
        _scan_chunk(
            high, width, range_max, min_size, max_size, low_digits, top_keys, counts, best
        )
    spectrum: dict = {0: 1} if min_size == 0 else {}
    witnesses = {}
    for i in np.flatnonzero(counts).tolist():
        v = i - 2 * range_max
        spectrum[v] = spectrum.get(v, 0) + int(counts[i])
        w = IntSet._from_sorted(_bit_positions(_key_mask(int(best[i]), range_max)))
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
    if range_max <= 63:
        # every sample lies in [0, range_max], and mstd_delta's checks grow with
        # max A and with the span, so this one call covers every sample
        _check_sum_diff(0, range_max, 2, 0)
        _score_lanes(rng, population, size, trials, spectrum, best)
    else:
        for _ in range(trials):
            elems = sorted(rng.sample(population, size))
            lo, hi = elems[0], elems[-1]
            _check_sum_diff(lo, hi, 2, 0)
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


def _score_lanes(
    rng: random.Random, population: range, size: int, trials: int, spectrum: dict, best: dict
) -> None:
    """``random_search``'s loop for a population within [0, 63]: the draws
    of ``rng.sample``, replayed where ``_replays_sample`` allows, scored a
    batch at a time in uint64 lanes (module docstring)."""
    import numpy as np

    one = np.uint64(1)
    rows = max(1, (1 << _CHUNK_BITS) // size)
    n = len(population)
    replay = _PoolReplay(rng, n, size) if _replays_sample(n, size) else None
    for done in range(0, trials, rows):
        count = min(rows, trials - done)
        if replay is not None:
            draws = replay.draw(count)
        else:
            draws = [rng.sample(population, size) for _ in range(count)]
        s = np.array(draws, dtype=np.uint64)
        s.sort(axis=1)
        s -= s[:, :1]
        mask = np.bitwise_or.reduce(one << s, axis=1)
        half = mask >> one
        lo = np.zeros_like(mask)  # bits 0..63 of A+A
        hi = np.zeros_like(mask)  # bits 64..127 of A+A
        dif = np.zeros_like(mask)  # (A-A) ∩ N
        for e in s.T:
            lo |= mask << e
            hi |= half >> (np.uint64(63) - e)  # mask >> (64 - e), and 0 at e = 0
            dif |= mask >> e
        sums = np.bitwise_count(lo).astype(np.intp) + np.bitwise_count(hi)
        delta = sums - 2 * np.bitwise_count(dif).astype(np.intp) + 1
        base = int(delta.min())
        tally = np.bincount(delta - base)
        g = np.gcd.reduce(s, axis=1)
        np.maximum(g, one, out=g)  # a singleton shifts to [0], whose gcd is 0
        # the normalized rows, grouped by delta
        cands = (s // g[:, None])[np.argsort(delta)].tolist()
        start = 0
        for i in np.flatnonzero(tally).tolist():
            stop = start + int(tally[i])
            d = i + base
            spectrum[d] = spectrum.get(d, 0) + stop - start
            c = min(cands[start:stop])
            if d not in best or c < best[d]:
                best[d] = c
            start = stop


class _PoolReplay:
    """``rng.sample(range(n), k)`` for n <= 64 in CPython's pool branch,
    replayed from bulk generator words (module docstring).  Unread words
    carry over from one ``draw`` to the next, so successive draws make
    the same samples as successive ``rng.sample`` calls."""

    def __init__(self, rng: random.Random, n: int, k: int) -> None:
        self.rng = rng
        self.n = n
        # step i draws randbelow(n - i) from the top b bits of a word
        self.steps = [(n - i, (n - i).bit_length()) for i in range(k)]
        # words a sample takes on average: each draw is kept with chance bound / 2^b
        self.per_sample = sum((1 << b) / bound for bound, b in self.steps)
        # b <= 7, so a word's top byte holds its top b bits: byte x -> x >> (8 - b)
        bits = {b for _, b in self.steps}
        self.shifts = {b: bytes(x >> (8 - b) for x in range(256)) for b in bits}
        self.unread = b""  # the top byte of each word drawn and not yet read

    def draw(self, count: int) -> np.ndarray:
        """The next ``count`` samples, as the rows of a uint8 array."""
        import numpy as np

        k = len(self.steps)
        picks = bytearray()  # randbelow(n - i) of each step, k per sample
        while len(picks) < count * k:
            left = count - len(picks) // k
            # at least one new word, so a sample cut short gets further each pass
            new = max(1, math.ceil(left * self.per_sample) - len(self.unread))
            # word j is bits [32j, 32j + 32), so its top byte is byte 4j + 3
            self.unread += self.rng.getrandbits(32 * new).to_bytes(4 * new, "little")[3::4]
            tops = {b: self.unread.translate(table) for b, table in self.shifts.items()}
            steps = [(bound, tops[b]) for bound, b in self.steps]
            q = start = 0
            try:
                for _ in range(left):
                    for bound, v in steps:
                        r = v[q]
                        q += 1
                        while r >= bound:
                            r = v[q]
                            q += 1
                        picks.append(r)
                    start = q
            except IndexError:  # out of words mid-sample: it starts again on more
                del picks[len(picks) - len(picks) % k :]
            self.unread = self.unread[start:]
        # the pool swaps, a column at a time: result[i] = pool[j]; pool[j] = pool[n - i - 1]
        picks = np.frombuffer(picks, dtype=np.uint8).reshape(count, k)
        pool = np.tile(np.arange(self.n, dtype=np.uint8), (count, 1))
        rows = np.arange(count)
        out = np.empty_like(picks)
        for i in range(k):
            j = picks[:, i]
            out[:, i] = pool[rows, j]
            pool[rows, j] = pool[:, self.n - 1 - i]
        return out


@lru_cache(maxsize=None)
def _replays_sample(n: int, k: int) -> bool:
    """Whether ``_PoolReplay(rng, n, k)`` draws what ``rng.sample(range(n), k)``
    does on this interpreter: CPython's pool branch holds for (n, k), and the
    two agree on a fixed seed.  Probed once per (n, k) and process."""
    setsize = 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)
    if n > setsize:
        return False  # the set branch
    rng = random.Random(_PROBE_SEED)
    want = [rng.sample(range(n), k) for _ in range(_PROBE_SAMPLES)]
    got = _PoolReplay(random.Random(_PROBE_SEED), n, k).draw(_PROBE_SAMPLES)
    return got.tolist() == want
