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
read-only.  L-L and reversed L are uint32, since no difference exceeds
range_max <= 24.

Depth-first walk.  The chunks are the nodes of a tree: the root is H = 0,
and the children of H are H | {h} for each h > max H.  By the split
above, a child's arrays are its parent's with one shifted table and one
scalar ORed in:

    sums(H | {h})  = sums(H)  | (L << h) | OR_{x in H | {h}} bit x + h
    diffs(H | {h}) = diffs(H) | (rev << (h - w + 1)) | OR_{x in H | {h}} bit h - x

The root's arrays are the L+L and L-L tables, so every node's arrays are
final and are counted as they stand.  The walk visits the children in
descending h.  The last, h = max H + 1, folds into its parent's buffers
in place, since the parent is done with them; every other child takes a
buffer pair from a free list and gives it back after its subtree.  So a
scan holds at most one pair per level of the tree, plus the count
buffers (popcounts, delta and keys), each allocated once per scan.

Row order.  The table rows come in two blocks, the masks with bit 1 set
(block 1) and then those without it (block 0).  Block 1 runs by size |L|
descending and block 0 by size ascending, L ascending within each size,
so the rows of size at most s are one slice around the split between the
blocks, ``edges[s]``.  A node keeps the rows with |L| <= max_size - |H|,
and its children's rows are a slice of those.  The rows it counts, those
with |L| in the band, are a slice of each block; when the band reaches
size 1, as a full band does, the two are adjacent and the node makes one
pass, and a band cut below makes two.  A subtree in which no node leaves
a size of L in the band is not built.  In the node with H = 0, the weight
and the key's top digit follow the top bit of L, which the ``top`` table
gives per row.  The key table shifted into place and the top keys are
built once per scan.

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
With top t, the key is G[t] = 2 (4^(range_max + 1) - 4^(range_max - t)) / 3,
which has digit 2 at every position 0..t, less 1 at each element's
digit.  With H not empty, every position of L lies below the top, so the
key of L | H is the key of H less L's table part (1 at each element's
digit) shifted into place.  With H = 0 and top t, it is G[t] less the
same.  The key of H is G[max H] - sum_{p in H} 4^(range_max - p); the
walk keeps the sum as it adds bits.  One ``np.minimum.at`` per pass
keeps the smallest key for each delta, and the witness is read off it:
its elements are the positions p whose digit key >> 2 (range_max - p) & 3
is 1.  The counts and the keys are kept in ``_LANES`` copies that
successive rows take in turn, since ``np.bincount`` and
``np.minimum.at`` run about 1.3-1.8x faster when neighbouring rows
rarely hit one entry; the copies are summed and minimized once, at the
end.

Witness selection per delta is restricted to masks containing 0: every
subset's normalized form (translate to 0, divide by the gcd) lies in the
same size band and has the same delta, so the lexicographically minimal
normalized witness is exactly the minimal mask-with-bit-0 — if that
minimum had a gcd above 1, dividing it out would yield a strictly smaller
enumerated candidate.  The quotient enumerates exactly these masks, so
it leaves the witnesses unchanged.  Chunks merge by adding counts and by
the integer minimum of keys, so the report does not depend on the chunk
size.  The arithmetic is integer throughout.

Random samples.  ``random_search`` runs one loop for every range_max.
Each batch draws up to 2^_CHUNK_BITS sample elements, the working set of
one spectrum chunk, and a scorer gives (delta, tally, least normalized
sample) triples, a normalized sample being s = A - min A divided by its
gcd, compared as a list: ``_score_lanes`` one per delta of the batch,
``_score_sets`` one per sample.  One merge adds the tallies and keeps
the least sample per delta, which becomes an ``IntSet`` once, at the
end, re-verified by ``mstd_delta``.  The samples come in the same order
whatever the batch size (replayed draws, below), so the report does not
depend on it.  With range_max <= 63, A's shifted mask and the
nonnegative half of A-A fit one uint64 lane and A+A two, so
``_score_lanes`` scores the batch in numpy.  Each row is sorted and
shifted to 0, m = OR_j 1 << s_j, and for each column e

    lo |= m << e,   hi |= (m >> 1) >> (63 - e),   dif |= m >> e,

where hi holds the bits of A+A from 64 up (m >> (64 - e), written so no
shift reaches 64), and delta = |lo| + |hi| - (2 |dif| - 1), tallied by
``np.bincount``.  The least sample per delta is picked on a packed key:
columns 1..10 of each normalized row (column 0 is 0), 6 bits each as no
value exceeds 63, in one uint64, which orders rows of one batch as their
lists do up to column 10.  One ``np.minimum.at`` takes each delta's least
key; only the rows that tie it become Python lists, and ``min`` breaks
what ties remain past column 10.  The lanes need no range or span
check: A+A of a sample in [0, 63] lies in [0, 126], far inside the
signed 64-bit range and the span limit, so ``mstd_delta``'s checks
cannot fail on it.
Above 63 ``_score_sets`` takes ``mstd_delta`` of each sample, whose
checks raise at the first failing trial.  Both scorers cost O(|A|)
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
only each word's top byte x (byte 4j + 3 of the little-endian bytes),
whose top b bits x >> (8 - b) are below m exactly when x < m << (8 - b).
For each step, a ``for`` loop over the byte stream runs to the first
byte below the step's limit and keeps it, so there is no Python call per
byte; each column of the kept bytes is shifted down by 8 - b once, to
give j, and the pool swaps then run on a (rows, n) uint8 array a column
at a time.  The bytes come from one stream per replay, refilled with the
top bytes of the next 2^_CHUNK_BITS words whenever it runs dry, so a
sample may cross a refill and each ``draw`` goes on where the last one
stopped.
The rng is private to ``random_search``, so the words drawn past the
last sample change nothing.  ``_replays_sample`` checks the replay
against ``rng.sample`` on a fixed seed, once per (n, k) and process;
where they differ, as on an interpreter whose sampler draws otherwise,
and in the set branch (n > setsize), the batches are
``sorted(rng.sample(...))``, as above 63.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import TYPE_CHECKING, Iterator

from .setops import I64_MAX, IntSet, _strict_int, mstd_delta, normalize

if TYPE_CHECKING:
    import numpy as np

MAX_RANGE = 24

# log2 of the masks per chunk; the tables then have 2^14 entries each
_CHUNK_BITS = 14

# copies of the spectrum's counts and witness keys that successive rows take
# in turn, so that np.bincount and np.minimum.at rarely update one entry twice
# in a row
_LANES = 4

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


@dataclass(frozen=True)
class _LowTables:
    """Read-only tables over L, the masks below 2^width with bit 0.

    The rows with bit 1 set come first (block 1), by size |L| descending,
    then the rows with bit 1 clear (block 0), by size ascending; L ascends
    within each size.  So the rows of size at most s are one slice around
    the split between the blocks, ``slice(*edges[s])`` for 0 <= s <= width:
    block 1 ends at the split and block 0 starts there.
    """

    low: np.ndarray  # L
    sums: np.ndarray  # L+L: bit x + y
    diffs: np.ndarray  # L-L: bit x - y for x >= y, as uint32
    rev: np.ndarray  # bit width - 1 - x for each x in L, as uint32
    top: np.ndarray  # max L, as uint8
    key: np.ndarray  # 1 at the key digit of each x in L: bits 2 (width - 1 - x)
    edges: tuple  # per size s: (first, stop) of the rows of size at most s


@lru_cache(maxsize=None)
def _low_tables(width: int) -> _LowTables:
    import numpy as np

    one = np.uint64(1)
    low = (np.arange(1 << (width - 1), dtype=np.uint64) << one) | one
    size = np.bitwise_count(low).astype(np.int64)
    bit1 = ((low >> one) & one).astype(np.int64)
    # block 1 by size descending, then block 0 by size ascending
    order = np.argsort(np.where(bit1 == 1, width - size, width + size), kind="stable")
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
    edges = tuple(
        (
            split - int(np.count_nonzero(size[:split] <= s)),
            split + int(np.count_nonzero(size[split:] <= s)),
        )
        for s in range(width + 1)
    )
    tables = _LowTables(
        low, sums, diffs.astype(np.uint32), rev.astype(np.uint32), top, key, edges
    )
    for arr in vars(tables).values():
        if arr is not edges:
            arr.flags.writeable = False
    return tables


class _Walk:
    """One exhaustive scan: its band, its tables and the buffers its nodes
    share.  ``counts`` and ``best`` hold ``_LANES`` copies of the weighted
    delta counts and the least witness keys, each indexed by
    delta + 2 range_max.  The rows of a pass take the copies in turn
    (``lanes``), so that successive rows with one delta update different
    entries; the copies are summed and minimized at the end."""

    def __init__(self, range_max: int, min_size: int, max_size: int):
        import numpy as np

        self.range_max, self.min_size, self.max_size = range_max, min_size, max_size
        self.width = width = min(_CHUNK_BITS, range_max) + 1
        self.tables = tables = _low_tables(width)
        rows = len(tables.low)
        hist = 4 * range_max + 1  # delta + 2 range_max lies in [0, 4 range_max]
        # the key table shifted to L's digits, positions 0..width-1, above H's
        # in significance
        self.low_digits = tables.key << np.uint64(2 * (range_max - width + 1))
        # per t: the key G[t], with digit 2 at every position 0..t
        self.ground = tuple(
            2 * ((4 << 2 * range_max) - (1 << 2 * (range_max - t))) // 3
            for t in range(range_max + 1)
        )
        self.counts = np.zeros(_LANES * hist, dtype=np.int64)
        self.best = np.full(_LANES * hist, np.iinfo(np.uint64).max, dtype=np.uint64)
        # per row of a pass: its copy's offset into counts and best
        self.lanes = (np.arange(rows) % _LANES * hist).astype(np.uint16)
        # per row of a pass: the bits of A+A and of (A-A) ∩ N, then the index
        self.sum_card = np.empty(rows, dtype=np.uint8)
        self.diff_card = np.empty(rows, dtype=np.uint8)
        self.index = np.empty(rows, dtype=np.intp)
        # the witness keys of a pass, and L << h while a child is built
        self.scratch = np.empty(rows, dtype=np.uint64)
        # rev << (h - width + 1) while a child is built
        self.shifted_rev = np.empty(rows, dtype=np.uint32)
        self.free: list = []  # spare (sums, diffs) buffer pairs


def _walk(
    walk: _Walk, high: int, digits: int, sums: np.ndarray, diffs: np.ndarray, owned: bool
) -> None:
    """Count the node H = ``high``, then build and walk each child
    H | {h}, h > max H, in descending h (module docstring).  ``sums`` and
    ``diffs`` hold H's A+A and (A-A) ∩ N on the rows of its L, indexed
    by table row; ``digits`` is the sum of 4^(range_max - p) over p in H.
    The last child folds into H's buffers when H ``owned`` them, and
    every other child takes a pair from the free list and gives it back."""
    import numpy as np

    n, width, tables = walk.range_max, walk.width, walk.tables
    top = high.bit_length() - 1 if high else width - 1
    _count_node(walk, high, walk.ground[top] - digits, sums, diffs)
    size = high.bit_count()
    most = walk.max_size - size - 1  # the largest |L| a child keeps
    if most < 1:
        return
    rows = slice(*tables.edges[min(most, width)])
    parent_sums, parent_diffs, low, rev = sums[rows], diffs[rows], tables.low[rows], tables.rev[rows]
    shifted, shifted_rev = walk.scratch[rows], walk.shifted_rev[rows]
    # bit range_max - x for each x in H, so that h - x is a shift away
    mirrored = sum(1 << n - x for x in range(width, top + 1) if high >> x & 1)
    # a child above this h would need |L| > width to reach min_size, even with every bit above h
    first = min(n, n + width + size + 1 - walk.min_size)
    for h in range(first, top, -1):
        if owned and h == top + 1:
            child_sums, child_diffs = sums, diffs
        elif walk.free:
            child_sums, child_diffs = walk.free.pop()
        else:
            child_sums = np.empty(len(tables.low), dtype=np.uint64)
            child_diffs = np.empty(len(tables.low), dtype=np.uint32)
        child = high | 1 << h
        # x + h and h - x for x in H | {h}; every x >= width exceeds every bit of L
        into = child_sums[rows]
        np.bitwise_or(parent_sums, child << h, out=into)
        np.left_shift(low, h, out=shifted)
        into |= shifted
        into = child_diffs[rows]
        np.bitwise_or(parent_diffs, mirrored >> n - h | 1, out=into)
        np.left_shift(rev, h - width + 1, out=shifted_rev)
        into |= shifted_rev
        _walk(walk, child, digits + (1 << 2 * (n - h)), child_sums, child_diffs, True)
        if child_sums is not sums:
            walk.free.append((child_sums, child_diffs))


def _count_node(
    walk: _Walk, high: int, key: int, sums: np.ndarray, diffs: np.ndarray
) -> None:
    """Add the masks high | L in the size band to the weighted delta counts
    and the least witness keys.  ``key`` is the witness key of H, unused
    when H is empty; ``sums`` and ``diffs`` are H's arrays."""
    import numpy as np

    n, width, tables, counts = walk.range_max, walk.width, walk.tables, walk.counts
    size = high.bit_count()
    lo, hi = max(walk.min_size - size, 1), min(walk.max_size - size, width)
    if lo > hi:
        return
    # the rows whose size |L| lies in [lo, hi]: start1:stop1 in block 1, start0:stop0 in block 0
    (start1, stop0), (stop1, start0) = tables.edges[hi], tables.edges[lo - 1]
    top = high.bit_length() - 1
    weight1 = weight0 = n - top + 1 if high else None  # None: by the top of L
    if high and top - 1 >= width:
        # mirror pairs (module docstring): bit T-1 is a high bit
        if high >> (top - 1) & 1:
            stop0 = start0
        else:
            weight1 = 2 * weight0
    # one scan per run of adjacent blocks: (start, stop, ((start, stop, weight) per block))
    blocks = ((start1, stop1, weight1), (start0, stop0, weight0))
    if stop1 == start0:
        scans = ((start1, stop0, blocks),)
    else:
        scans = tuple((first, end, ((first, end, w),)) for first, end, w in blocks)
    for start, stop, parts in scans:
        if start == stop:
            continue
        rows, m = slice(start, stop), stop - start
        sum_card = np.bitwise_count(sums[rows], out=walk.sum_card[:m])
        diff_card = np.bitwise_count(diffs[rows], out=walk.diff_card[:m])
        # |A-A| = 2 |diffs| - 1: uint8 wraps, but delta + 2 range_max ends in [0, 4 range_max]
        sum_card -= diff_card
        sum_card -= diff_card
        sum_card += 2 * n + 1
        index = np.add(sum_card, walk.lanes[:m], out=walk.index[:m])
        keys = walk.scratch[:m]
        if high:
            # every position of L lies below H's top, where H's key has digit 2
            np.subtract(key, walk.low_digits[rows], out=keys)
            np.minimum.at(walk.best, index, keys)
            for first, end, w in parts:
                if first < end:
                    part = index[first - start : end - start]
                    counts += np.bincount(part, minlength=len(counts)) * w
            continue
        top_row = tables.top[rows]
        # with H = 0 and top t, L's key is ground[t] less L's digits (module docstring)
        top_keys = np.array(walk.ground[:width], dtype=np.uint64)
        np.subtract(top_keys[top_row], walk.low_digits[rows], out=keys)
        np.minimum.at(walk.best, index, keys)
        # masks per (index, top), each weighted by its range_max - top + 1 translates
        per_top = np.bincount(index * width + top_row, minlength=len(counts) * width)
        counts += per_top.reshape(len(counts), width) @ (n + 1 - np.arange(width))


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

    range_max = _strict_int("range_max", range_max, 0, MAX_RANGE)
    min_size = _strict_int("min_size", min_size, 0, range_max + 1)
    max_size = _strict_int("max_size", max_size, min_size, range_max + 1)
    enumerated = _band_size(range_max, min_size, max_size)
    walk = _Walk(range_max, min_size, max_size)
    _walk(walk, 0, 0, walk.tables.sums, walk.tables.diffs, False)
    counts = walk.counts.reshape(_LANES, -1).sum(axis=0)
    best = walk.best.reshape(_LANES, -1).min(axis=0)
    spectrum: dict = {0: 1} if min_size == 0 else {}
    least = {}
    for i in np.flatnonzero(counts).tolist():
        v = i - 2 * range_max
        spectrum[v] = spectrum.get(v, 0) + int(counts[i])
        # the positions whose key digit is 1
        key = int(best[i])
        least[v] = [p for p in range(range_max + 1) if key >> 2 * (range_max - p) & 3 == 1]
    return _report(range_max, spectrum, least, enumerated)


def random_search(range_max: int, size: int, trials: int, seed: int) -> SearchReport:
    """Sample fixed-size subsets of [0, range_max] uniformly with a seeded RNG.

    The same seed reproduces the identical report.  Witnesses are the
    lexicographically minimal normalized forms among the sampled sets.
    The samples are drawn and scored a batch at a time (module docstring).
    ``range_max`` may be at most ``I64_MAX - 1``, the largest range the
    sampler takes; a larger one raises ValueError before any draw.
    """
    range_max = _strict_int("range_max", range_max, hi=I64_MAX - 1)
    size = _strict_int("size", size, 1, range_max + 1)
    trials = _strict_int("trials", trials, 1)
    seed = _strict_int("seed", seed)
    rng = random.Random(seed)
    n = range_max + 1
    population = range(n)
    lanes = range_max <= 63
    replay = _PoolReplay(rng, n, size) if lanes and _replays_sample(n, size) else None
    score = _score_lanes if lanes else _score_sets
    rows = max(1, (1 << _CHUNK_BITS) // size)
    spectrum: dict = {}
    best: dict = {}  # delta -> least normalized sample, as a list
    for done in range(0, trials, rows):
        count = min(rows, trials - done)
        if replay is not None:
            draws = replay.draw(count)
        else:
            draws = [sorted(rng.sample(population, size)) for _ in range(count)]
        for d, tally, least in score(draws):
            spectrum[d] = spectrum.get(d, 0) + tally
            if d not in best or least < best[d]:
                best[d] = least
    return _report(range_max, spectrum, best, trials)


def _score_lanes(draws) -> Iterator[tuple[int, int, list[int]]]:
    """(delta, tally, least normalized sample) per delta of a batch of
    samples within [0, 63], scored in uint64 lanes (module docstring)."""
    import numpy as np

    one = np.uint64(1)
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
    index = delta - base
    tally = np.bincount(index)
    g = np.gcd.reduce(s, axis=1)
    np.maximum(g, one, out=g)  # a singleton shifts to [0], whose gcd is 0
    norm = s // g[:, None]
    # columns 1..10 of each normalized row, 6 bits each (values <= 63), in a
    # key that orders the rows as lists do up to ties past column 10
    key = np.zeros_like(mask)
    for col in norm.T[1:11]:
        key <<= np.uint64(6)
        key |= col
    least = np.full(len(tally), np.iinfo(np.uint64).max, dtype=np.uint64)
    np.minimum.at(least, index, key)
    # only the rows that tie their delta's least key become lists
    tied = np.flatnonzero(key == least[index])
    cands: dict = {}
    for i, row in zip(index[tied].tolist(), norm[tied].tolist()):
        cands.setdefault(i, []).append(row)
    for i in np.flatnonzero(tally).tolist():
        yield i + base, int(tally[i]), min(cands[i])


def _score_sets(draws: list[list[int]]) -> Iterator[tuple[int, int, list[int]]]:
    """(delta, 1, normalized sample) for each sorted sample, by ``mstd_delta``,
    whose checks raise at the first failing one."""
    for elems in draws:
        a = IntSet._from_sorted(elems)
        yield mstd_delta(a).delta, 1, list(normalize(a).elements)


def _report(range_max: int, spectrum: dict, least: dict, enumerated: int) -> SearchReport:
    """The report whose witness for each delta is its least element list in
    ``least``, re-verified by ``mstd_delta``."""
    witnesses = {}
    for d, elems in least.items():
        w = IntSet._from_sorted(elems)
        if mstd_delta(w).delta != d:  # pragma: no cover - internal consistency
            raise RuntimeError(f"witness {w} does not verify to delta {d}")
        witnesses[d] = w
    return SearchReport(
        range_max=range_max, spectrum=spectrum, witnesses=witnesses, enumerated=enumerated
    )


class _PoolReplay:
    """``rng.sample(range(n), k)`` for n <= 64 in CPython's pool branch,
    replayed from the top bytes of bulk generator words (module docstring).
    One byte stream runs through successive ``draw`` calls, so they make
    the same samples as successive ``rng.sample`` calls."""

    def __init__(self, rng: random.Random, n: int, k: int) -> None:
        self.n = n
        # step i draws randbelow(n - i) from a word's top b = (n - i).bit_length() <= 7
        # bits, which its top byte x holds: x >> (8 - b) < n - i exactly when
        # x < (n - i) << (8 - b), so the walk compares raw bytes with these limits
        self.drops = [8 - (n - i).bit_length() for i in range(k)]
        self.limits = [(n - i) << d for i, d in enumerate(self.drops)]
        words = 1 << _CHUNK_BITS
        # word j is bits [32j, 32j + 32), so its top byte is byte 4j + 3
        refills = iter(lambda: rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4], b"")
        self.stream = chain.from_iterable(refills)

    def draw(self, count: int) -> np.ndarray:
        """The next ``count`` samples, as the rows of a uint8 array."""
        import numpy as np

        stream, limits = self.stream, self.limits
        picks = bytearray()  # the accepted byte of each step, k per sample
        append = picks.append
        for _ in range(count):
            for limit in limits:
                # resumes the stream where the last step stopped
                for r in stream:
                    if r < limit:
                        append(r)
                        break
        # the pool swaps, a column at a time: result[i] = pool[j]; pool[j] = pool[n - i - 1]
        picks = np.frombuffer(picks, dtype=np.uint8).reshape(count, len(limits))
        pool = np.tile(np.arange(self.n, dtype=np.uint8), (count, 1))
        rows = np.arange(count)
        out = np.empty_like(picks)
        for i, d in enumerate(self.drops):
            j = picks[:, i] >> d  # randbelow(n - i): the top b bits of the byte
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
