"""Exact arithmetic on finite sets of integers.

An :class:`IntSet` is an immutable, strictly increasing tuple of signed
64-bit integers.  Sumsets and difference sets run on a dense bitmask
kernel: a set with minimum ``m`` becomes a big integer whose bit
``e - m`` is set for every element ``e``, and ``A+B`` is the union of
copies of A's mask shifted by the elements of B.  Spans in this problem
domain run from tens to about a million bits, where the dense kernel
beats pairwise enumeration by a wide margin.

The shift-OR folds arithmetic runs rather than shifting once per
element.  A run ``(s, q, L)`` stands for the shifts ``s, s + q, ...,
s + (L-1) q`` with ``q >= 0``, and ``_fold_runs`` ORs a mask over a list
of runs in O(log L) shifts each.  Start with ``run = mask``, covering
the offsets ``{0}`` (in units of ``q``), and ``have = 1``.  While
``2 have <= L``, the step ``run |= run << (have q)`` turns the offsets
``{0, ..., have-1}`` into ``{0, ..., 2 have - 1}``.  When it stops,
``have <= L < 2 have``.  If ``have < L``, one more shift by
``(L - have) q`` adds ``{L - have, ..., L - 1}``.  That block starts at
``L - have < have``, so the union is ``{0, ..., L - 1}``: no gap, and
nothing past ``L - 1``.  A final shift by ``s`` places the run.  Runs
need no deduplication: OR is idempotent, so equal or overlapping shifts,
and a run of step 0, set each bit once.

Callers that built a set from progressions pass those runs to
``_fold_runs`` directly: ``constructions`` folds each family's pieces,
and ``grouplattice`` the embed progressions.  Runs are found only in a
generic list, by ``_runs``, in the order given and with no sort: each
maximal run of at least ``_RUN_MIN`` equally spaced consecutive shifts,
ascending or descending, becomes one run from its lowest value, and the
other shifts stay single.  ``_shift_or(mask, shifts)`` ORs fewer than
``_FOLD_MIN`` shifts one at a time and folds longer lists through
``_runs``; the gap family calls ``_runs`` once on its base.  The cutoffs
were measured (CHANGES.md).

A+B has one fold, ``_sum_mask``: the min, max and span checks of A+B,
then the larger operand's mask shifted by the other's offsets, and on a
size tie the first operand's.  A-B is A+(-B), with -B negated unchecked
for ``_sum_mask`` alone to read.  By the tie rule ``diffset(a, a)`` and
``mstd_delta``, which counts the bits of A+A and A+(-A), shift A's own
mask, and the checks of A+A cover A+(-A).

hA - kA has one fold and one envelope.  ``_fold_sum_diff`` folds the
mask 1 of {0} h times by A's elements less ``min A`` and k times by
``max A`` less each element: a sum of those terms is a sum of h
elements less a sum of k, moved up by ``k max A - h min A``.  Before
it, ``_check_sum_diff`` makes the range and span checks of building
hA - kA a step at a time with ``sumset`` and ``diffset``.  ``sum_diff``
runs both, and ``grouplattice``'s group, lattice and embed folds the fold.

All element arithmetic is range-checked against signed 64-bit bounds;
a result outside them raises ``OverflowError`` instead of wrapping.
"""

from __future__ import annotations

import json
import math
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import eq, neg, sub
from typing import Iterable, Iterator, Optional, Sequence

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

# Hard cap on the bit length of any dense mask (16 MiB of bits).  Spans
# beyond this are out of scope for the dense kernel.
MAX_SPAN_BITS = 1 << 27

# Shift-OR cutoffs, both measured (CHANGES.md): below _FOLD_MIN shifts the
# plain loop is cheaper than finding runs, and a run shorter than _RUN_MIN
# saves no shift by doubling.
_FOLD_MIN = 32
_RUN_MIN = 4
_RUN_BYTES = b"\x01" * (_RUN_MIN - 2)

# a token of the text wire format (compiled on first use, by re's cache)
_INT_TOKEN = r"[+-]?[0-9]+"


def _check_i64(value: int) -> int:
    if value < I64_MIN or value > I64_MAX:
        raise OverflowError(f"value {value} exceeds the signed 64-bit range")
    return value


def _check_span(span: int) -> int:
    if span > MAX_SPAN_BITS:
        raise ValueError(
            f"span {span} exceeds the dense-kernel limit of {MAX_SPAN_BITS} bits"
        )
    return span


def _is_strict_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer other than a bool.

    No numpy integer exists before numpy is imported, so numpy's type is
    tested only once ``sys.modules`` holds it."""
    np = sys.modules.get("numpy")
    kinds = int if np is None else (int, np.integer)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _strict_int(name: str, value) -> int:
    """``value`` as an int if ``_is_strict_int`` accepts it; anything else raises."""
    if _is_strict_int(value):
        return int(value)
    try:
        shown = json.dumps(value)
    except (TypeError, ValueError):
        shown = repr(value)
    raise ValueError(f"{name} must be an integer, got {shown}")


def _strict_ints(name: str, values: Iterable) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each checked by ``_strict_int``."""
    # The type test skips the call for plain ints, the common case.
    return tuple(v if type(v) is int else _strict_int(name, v) for v in values)


def _load_json(text: str):
    """``json.loads``; input nested too deeply for the parser, or an object
    with a repeated key, raises ``ValueError``."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; ``json.loads`` alone keeps the last
    of repeated keys."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate JSON key {json.dumps(key)}")
        obj[key] = value
    return obj


def _bit_positions(mask: int, base: int = 0) -> list[int]:
    """``base + i`` for each set bit ``i`` of a nonnegative int, ascending.

    Without numpy, it takes 3-3.5x numpy's decode time on dense masks of
    1e3 to 1e6 bits and up to 1.7x on sparse ones (CHANGES.md)."""
    gaps = bin(mask)[:1:-1].split("1")[:-1]
    return list(accumulate([len(g) + 1 for g in gaps], initial=base - 1))[1:]


class IntSet:
    """Immutable finite set of integers, stored sorted and deduplicated."""

    __slots__ = ("_elements", "_mask_cache")

    def __init__(self, elements: Iterable[int] = ()):
        elems = sorted(set(_strict_ints("element", elements)))
        if elems:
            _check_i64(elems[0])
            _check_i64(elems[-1])
        self._elements = tuple(elems)
        self._mask_cache: Optional[int] = None

    @classmethod
    def _from_sorted(cls, elems: Iterable[int], mask: Optional[int] = None) -> "IntSet":
        """Trusted constructor: ``elems`` strictly increasing and in range; ``mask`` theirs."""
        out = cls.__new__(cls)
        out._elements = tuple(elems)
        out._mask_cache = mask
        return out

    # -- basic accessors ----------------------------------------------------

    @property
    def elements(self) -> tuple[int, ...]:
        return self._elements

    @property
    def min(self) -> int:
        if not self._elements:
            raise ValueError("empty set has no minimum")
        return self._elements[0]

    @property
    def max(self) -> int:
        if not self._elements:
            raise ValueError("empty set has no maximum")
        return self._elements[-1]

    @property
    def span(self) -> int:
        return self.max - self.min

    @property
    def mask(self) -> int:
        """Dense bitmask relative to ``self.min`` (bit ``e - min`` per element)."""
        if self._mask_cache is None:
            _check_span(self.span)
            base = self._elements[0]
            self._mask_cache = _shift_or(1, (e - base for e in self._elements))
        return self._mask_cache

    def __len__(self) -> int:
        return len(self._elements)

    def __bool__(self) -> bool:
        return bool(self._elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    def __contains__(self, x: object) -> bool:
        """Whether ``x`` is an element; only an integer the constructor accepts can be."""
        if not _is_strict_int(x):
            return False
        x = int(x)
        i = bisect_left(self._elements, x)
        return i < len(self._elements) and self._elements[i] == x

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntSet) and self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __or__(self, other: "IntSet") -> "IntSet":
        if not isinstance(other, IntSet):
            return NotImplemented
        return IntSet(self._elements + other._elements)

    def __repr__(self) -> str:
        return f"IntSet({{{', '.join(map(str, self._elements))}}})"

    # -- serialization ------------------------------------------------------

    @classmethod
    def _validated(cls, elems: Sequence[int], where: str) -> "IntSet":
        for prev, cur in zip(elems, elems[1:]):
            if cur <= prev:
                raise ValueError(
                    f"{where}: elements must be strictly increasing "
                    f"(saw {prev} then {cur})"
                )
        for e in elems[:1] + elems[-1:]:
            if not I64_MIN <= e <= I64_MAX:
                raise ValueError(
                    f"{where}: element {e} is outside the signed 64-bit range"
                )
        return cls._from_sorted(elems)

    @classmethod
    def from_text(cls, text: str) -> "IntSet":
        """Parse space-separated, strictly ascending integers.

        A token is an optional sign and ASCII digits; ``int`` alone would
        also take digit-group underscores and non-ASCII digits."""
        tokens = text.split()
        for tok in tokens:
            if not re.fullmatch(_INT_TOKEN, tok):
                raise ValueError(f"text input: {tok!r} is not a decimal integer")
        return cls._validated([int(tok) for tok in tokens], "text input")

    @classmethod
    def from_json(cls, text: str) -> "IntSet":
        """Parse ``{"elements": [...]}`` with strictly ascending integers."""
        data = _load_json(text)
        if not isinstance(data, dict) or "elements" not in data:
            raise ValueError('JSON input must be an object with an "elements" key')
        raw = data["elements"]
        if not isinstance(raw, list):
            raise ValueError('"elements" must be a list of integers')
        return cls._validated(_strict_ints("element", raw), "JSON input")

    def to_text(self) -> str:
        return " ".join(map(str, self._elements))

    def to_json(self) -> str:
        return json.dumps({"elements": list(self._elements)})


def interval(lo: int, hi: int) -> IntSet:
    """The integer interval ``{lo, lo+1, ..., hi}`` (empty when ``hi < lo``)."""
    lo, hi = _strict_int("lo", lo), _strict_int("hi", hi)
    if hi < lo:
        return IntSet()
    _check_i64(lo)
    _check_i64(hi)
    _check_span(hi - lo)
    return IntSet._from_sorted(range(lo, hi + 1))


@dataclass(frozen=True)
class SymmetryWitness:
    """Center c with A = c - A."""

    center: int


@dataclass(frozen=True)
class MstdDelta:
    """Cardinalities |A+A|, |A-A| and their difference."""

    sum_card: int
    diff_card: int

    @property
    def delta(self) -> int:
        return self.sum_card - self.diff_card

    @property
    def is_mstd(self) -> bool:
        return self.delta > 0


# -- kernel ------------------------------------------------------------------


def _fold_runs(mask: int, runs: Iterable[tuple[int, int, int]]) -> int:
    """OR together ``mask << (s + i q)`` for ``0 <= i < L`` over runs ``(s, q, L)``.

    Each run needs ``s >= 0``, ``q >= 0`` and ``L >= 1``, and costs
    O(log L) big-int shifts by doubling (module docstring).
    """
    acc = 0
    for start, step, length in runs:
        run, have = mask, 1
        while 2 * have <= length:
            run |= run << (have * step)
            have *= 2
        if have < length:
            run |= run << ((length - have) * step)
        acc |= run << start
    return acc


def _runs(s: list[int]) -> list[tuple[int, int, int]]:
    """The shifts ``s`` as runs ``(start, step, length)`` for ``_fold_runs``, in order.

    Each maximal run of at least ``_RUN_MIN`` equally spaced consecutive
    shifts becomes one run from its lowest value, ascending or not; every
    other shift ``x`` becomes ``(x, 0, 1)``.
    """
    gaps = list(map(sub, s[1:], s))
    # byte i is 1 when s[i], s[i+1], s[i+2] are equally spaced
    even = bytes(map(eq, gaps[1:], gaps))
    runs = []
    done = 0  # s[:done] is in runs
    i = even.find(_RUN_BYTES)
    while i >= 0:
        j = even.find(0, i)
        if j < 0:
            j = len(even)
        runs += [(x, 0, 1) for x in s[done:i]]
        # s[i : j + 2] is a maximal run: its low end is s[i] if it ascends,
        # s[j + 1] if not
        runs.append((min(s[i], s[j + 1]), abs(gaps[i]), j + 2 - i))
        done = j + 2
        i = even.find(_RUN_BYTES, j)
    runs += [(x, 0, 1) for x in s[done:]]
    return runs


def _shift_or(mask: int, shifts: Iterable[int]) -> int:
    """OR together ``mask << s`` over nonnegative shifts ``s``.

    With fewer than ``_FOLD_MIN`` shifts, each is ORed on its own; with
    more, ``_runs`` finds their runs and ``_fold_runs`` folds them.
    """
    s = list(shifts)
    if len(s) >= _FOLD_MIN:
        return _fold_runs(mask, _runs(s))
    acc = 0
    for x in s:
        acc |= mask << x
    return acc


def sumset(a: IntSet, b: IntSet) -> IntSet:
    """A+B = {x + y : x in A, y in B}; empty if either operand is empty."""
    if not a or not b:
        return IntSet()
    acc, base = _sum_mask(a, b)
    return IntSet._from_sorted(_bit_positions(acc, base), acc)


def _sum_mask(a: IntSet, b: IntSet) -> tuple[int, int]:
    """The mask of A+B for nonempty A and B and its base ``min A + min B``,
    after A+B's range and span checks (module docstring)."""
    base = _check_i64(a.min + b.min)
    _check_span(_check_i64(a.max + b.max) - base)  # the span of A plus that of B
    small, big = (a, b) if len(a) < len(b) else (b, a)
    smin = small.min
    return _shift_or(big.mask, [y - smin for y in small.elements]), base


def _negated(a: IntSet) -> IntSet:
    """-A, unchecked: its elements may reach 2^63, so only ``_sum_mask`` reads it."""
    return IntSet._from_sorted(map(neg, reversed(a.elements)))


def diffset(a: IntSet, b: IntSet) -> IntSet:
    """A-B = {x - y : x in A, y in B}; empty if either operand is empty."""
    return sumset(a, _negated(b))


def h_fold(a: IntSet, h: int) -> IntSet:
    """h-fold sumset hA: 0-fold is {0}, 1-fold is A (``sum_diff(a, h, 0)``)."""
    return sum_diff(a, h, 0)


def sum_diff(a: IntSet, h: int, k: int) -> IntSet:
    """Generalized sum-difference set hA - kA (sums of h elements minus sums of k).

    0A - 0A is {0} and 1A - 0A is A itself.  Any other hA - kA is checked
    once (``_check_sum_diff``), folded once (``_fold_sum_diff``) and
    decoded once."""
    h, k = _strict_int("h", h), _strict_int("k", k)
    if h < 0 or k < 0:
        raise ValueError("fold counts must be nonnegative")
    if h + k == 0:
        return IntSet((0,))
    if not a or (h, k) == (1, 0):
        return a
    lo, hi = a.min, a.max
    base = _check_sum_diff(lo, hi, h, k)[0]
    mask = _fold_sum_diff([e - lo for e in a.elements], hi - lo, h, k)
    return IntSet._from_sorted(_bit_positions(mask, base), mask)


def _check_sum_diff(lo: int, hi: int, h: int, k: int) -> tuple[int, int]:
    """(min, max) of hA - kA for a set A from ``lo`` to ``hi``, after its checks.

    They are the range and span checks of building hA - kA a step at a
    time, in order: each j-fold sum jA for j = 2..max(h, k), then hA - kA
    itself.  Its span (h + k)(hi - lo) bounds A's own span, so for
    (h, k) = (1, 0) the last check is A's own range and span.

    j lo, j hi and j (hi - lo) only move away from 0 as j grows, so the
    first j-fold to fail is the least j that fails one of its checks, and
    the j-folds are checked once, at that j or at max(h, k) if none fails."""
    j = max(h, k)
    if j >= 2:
        # each check as j x <= bound (j lo >= I64_MIN as -j lo <= -I64_MIN);
        # where j x is past its bound, the least j that is past it is bound // x + 1
        for x, bound in ((-lo, -I64_MIN), (hi, I64_MAX), (hi - lo, MAX_SPAN_BITS)):
            if j * x > bound:
                j = bound // x + 1
        j = max(j, 2)
        _check_i64(j * lo)
        _check_i64(j * hi)
        _check_span(j * (hi - lo))
    lo, hi = _check_i64(h * lo - k * hi), _check_i64(h * hi - k * lo)
    _check_span(hi - lo)
    return lo, hi


def _fold_sum_diff(ups: list[int], top: int, h: int, k: int) -> int:
    """The mask 1 folded ``h`` times by ``ups`` and ``k`` times by ``top`` less each.

    With ``ups`` A's elements less ``min A`` and ``top`` its span, bit i
    marks i + h min A - k max A in hA - kA (module docstring)."""
    if top == 0:  # A is one point, and every fold of {0} is {0}
        return 1
    mask = 1
    for _ in range(h):
        mask = _shift_or(mask, ups)
    if k:
        downs = [top - u for u in ups]
        for _ in range(k):
            mask = _shift_or(mask, downs)
    return mask


def affine(a: IntSet, x: int, y: int) -> IntSet:
    """Elementwise map e -> x*e + y; requires x != 0 so cardinality is preserved."""
    x, y = _strict_int("x", x), _strict_int("y", y)
    if x == 0:
        raise ValueError("scale factor must be nonzero")
    imgs = [x * e + y for e in a.elements]
    if x < 0:
        imgs.reverse()
    if imgs:
        _check_i64(imgs[0])
        _check_i64(imgs[-1])
    return IntSet._from_sorted(imgs)


def symmetry_witness(a: IntSet) -> Optional[SymmetryWitness]:
    """Center c = min+max if A = c - A, else None.

    Checking that single candidate is complete: a symmetric finite set's
    center must map min to max.
    """
    if not a:
        raise ValueError("symmetry is undefined for the empty set")
    c = a.min + a.max
    if a.elements != tuple(c - e for e in reversed(a.elements)):
        return None
    return SymmetryWitness(c)


def mstd_delta(a: IntSet) -> MstdDelta:
    """|A+A|, |A-A| and their difference; positive delta means A is MSTD.

    Counts the set bits of the masks of A+A and A+(-A) without building
    either set; the checks of A+A (2 min A, 2 max A, twice the span) cover A-A."""
    if not a:
        return MstdDelta(0, 0)
    sums, diffs = _sum_mask(a, a)[0], _sum_mask(a, _negated(a))[0]
    return MstdDelta(sums.bit_count(), diffs.bit_count())


def normalize(a: IntSet) -> IntSet:
    """Canonical form under translation and positive dilation.

    Translates the minimum to 0 and, for sets of size >= 2, divides by the
    gcd of the shifted elements.  Idempotent; singletons map to {0}.
    """
    if not a:
        raise ValueError("cannot normalize the empty set")
    base = a.min
    shifted = [e - base for e in a.elements]
    if len(shifted) == 1:
        return IntSet((0,))
    g = math.gcd(*shifted)
    if g > 1:
        shifted = [e // g for e in shifted]
    return IntSet._from_sorted(shifted)
