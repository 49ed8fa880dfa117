"""Exhaustive and randomized exploration of the sum-minus-difference spectrum.

For subsets A of [0, range_max], the quantity of interest is
delta(A) = |A+A| - |A-A|.  The exhaustive scan evaluates every subset in
a size band with a vectorized bitmask kernel: a subset is a mask, its
sumset is the OR of the mask shifted by each of its own elements, and its
difference set is the same with mirrored shifts, so one pass over the bit
positions evaluates a whole chunk of subsets at once.

The scan enumerates only the masks containing bit 0, half of all masks,
and weights each by range_max - t + 1, where t is its highest bit.  This
is exact: translation by s maps the subsets with minimum 0 and maximum t
one to one onto those with minimum s, which lie in [0, range_max]
exactly for 0 <= s <= range_max - t, and it preserves the size, |A+A|
and |A-A|.  The empty set adds {0: 1} to a band that contains size 0.

Witness selection per delta is restricted to masks containing 0: every
subset's normalized form (translate to 0, divide by the gcd) lies in the
same size band and has the same delta, so the lexicographically minimal
normalized witness is exactly the minimal mask-with-bit-0 — if that
minimum had a gcd above 1, dividing it out would yield a strictly smaller
enumerated candidate.  The quotient enumerates exactly these masks, so
it leaves the witnesses unchanged.  Chunk results merge additively
(counts) and by lexicographic minimum (witnesses), so the report does
not depend on the chunk size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .setops import IntSet, _bit_positions, mstd_delta, normalize

MAX_RANGE = 24
DEFAULT_BUDGET = 1 << 25

_CHUNK_BITS = 18


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


def _popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr).astype(np.int32)


def _lex_min_mask(cands: np.ndarray, width: int) -> int:
    """Lexicographically minimal subset (as element tuples) among masks with bit 0.

    Greedy descent: if the current prefix is itself a candidate it wins
    (a proper prefix precedes every extension); otherwise candidates
    containing the next value dominate those that skip it.
    """
    prefix = 1
    for v in range(1, width + 1):
        if (cands == np.uint64(prefix)).any():
            return prefix
        has = (cands >> np.uint64(v)) & np.uint64(1) == 1
        if has.any():
            cands = cands[has]
            prefix |= 1 << v
    return int(cands[0])


def _mask_lex_less(a: int, b: int) -> bool:
    """Order of element tuples, on masks that both contain 0."""
    if a == b:
        return False
    d = (a ^ b) & -(a ^ b)
    if a & d:
        return b > d  # b continues past the shared prefix, so a is smaller
    return a < d  # a IS the shared prefix iff it has no bits beyond d


def _scan_chunk(lo: int, hi: int, range_max: int, min_size: int, max_size: int):
    """Weighted delta counts and lex-min witnesses of masks 2i + 1, lo <= i < hi."""
    masks = (np.arange(lo, hi, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
    sizes = _popcount(masks)
    masks = masks[(sizes >= min_size) & (sizes <= max_size)]
    sum_mask = np.zeros(len(masks), dtype=np.uint64)
    diff_mask = np.zeros(len(masks), dtype=np.uint64)
    for b in range(range_max + 1):
        sel = -((masks >> np.uint64(b)) & np.uint64(1))  # all ones where bit b is set
        sum_mask |= (masks << np.uint64(b)) & sel
        diff_mask |= (masks << np.uint64(range_max - b)) & sel
    delta = _popcount(sum_mask) - _popcount(diff_mask)
    # masks ascend, so those with highest bit t are masks[bounds[t] : bounds[t + 1]]
    powers = np.uint64(1) << np.arange(range_max + 2, dtype=np.uint64)
    bounds = np.searchsorted(masks, powers)
    spectrum: dict = {}
    for t in range(range_max + 1):
        values, counts = np.unique(delta[bounds[t] : bounds[t + 1]], return_counts=True)
        for v, c in zip(values.tolist(), counts.tolist()):
            spectrum[v] = spectrum.get(v, 0) + c * (range_max - t + 1)
    best = {v: _lex_min_mask(masks[delta == v], range_max) for v in spectrum}
    return spectrum, best


def _band_size(range_max: int, min_size: int, max_size: int) -> int:
    return sum(math.comb(range_max + 1, s) for s in range(min_size, max_size + 1))


def exhaustive_spectrum(
    range_max: int,
    min_size: int,
    max_size: int,
    budget: int = DEFAULT_BUDGET,
) -> SearchReport:
    """Evaluate delta for every subset of [0, range_max] in the size band.

    The spectrum maps each delta value to the number of subsets attaining
    it; witnesses map each delta to the lexicographically minimal
    normalized subset attaining it (absent only for the empty-set band).
    Deterministic, and independent of the chunk size.
    """
    if not 0 <= range_max <= MAX_RANGE:
        raise ValueError(f"range_max must be in [0, {MAX_RANGE}]")
    if not 0 <= min_size <= max_size <= range_max + 1:
        raise ValueError("need 0 <= min_size <= max_size <= range_max + 1")
    enumerated = _band_size(range_max, min_size, max_size)
    if enumerated > budget:
        raise ValueError(
            f"budget exceeded: {enumerated} subsets in band, budget {budget}"
        )
    spectrum: dict = {0: 1} if min_size == 0 else {}
    best: dict = {}
    half = 1 << range_max  # the masks with bit 0 are 2i + 1 for i < half
    chunk = 1 << _CHUNK_BITS
    for lo in range(0, half, chunk):
        part_spectrum, part_best = _scan_chunk(
            lo, min(lo + chunk, half), range_max, min_size, max_size
        )
        for v, c in part_spectrum.items():
            spectrum[v] = spectrum.get(v, 0) + c
        for v, mask in part_best.items():
            if v not in best or _mask_lex_less(mask, best[v]):
                best[v] = mask
    witnesses = {}
    for v, mask in best.items():
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
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 1 <= size <= range_max + 1:
        raise ValueError("size must be in [1, range_max + 1]")
    rng = random.Random(seed)
    population = range(range_max + 1)
    spectrum: dict = {}
    witnesses: dict = {}
    for _ in range(trials):
        a = IntSet(rng.sample(population, size))
        d = mstd_delta(a).delta
        spectrum[d] = spectrum.get(d, 0) + 1
        w = normalize(a)
        if d not in witnesses or w.elements < witnesses[d].elements:
            witnesses[d] = w
    return SearchReport(
        range_max=range_max,
        spectrum=spectrum,
        witnesses=witnesses,
        enumerated=trials,
    )
