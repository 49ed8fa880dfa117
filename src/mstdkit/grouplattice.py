"""Finite abelian groups, lattice embeddings, and transfer to the integers.

A finite abelian group is a product of cyclic groups given by its moduli.
Subsets embed canonically into the integer lattice Z^d by taking the
reduced representative of each coordinate; the reverse direction reduces
lattice points coordinatewise.  Thickening a group subset by a box of
sublattice translates produces lattice sets whose iterated sum-difference
cardinalities eventually order the same way as in the group, and a base-m
positional map (``linearize``) flattens lattice sets into integer sets
while preserving those cardinalities up to a chosen fold budget.

Every fold hS - kS of a point set runs on one mixed-radix layout
(``_layout``) and one decoder (``_decode``): a group subset takes each
axis's low coordinate just after its widest cyclic gap and reduces the
fold mod m, and a lattice set takes each axis's least coordinate and
skips the reduction.  ``linearize``'s base-radix map psi is used only
where the output is psi: ``linearize`` itself, the thickness scan and
embed's image (below).

On axis i, let lo_i be the low coordinate, write each coordinate c as the
digit c - lo_i (for a group, (c - lo_i) mod m_i, with lo_i just after the
widest cyclic gap: the largest step from one coordinate to the next, the
last wrapping round to the first), and let s_i be the largest digit.
Every point of hD + k(s - D), for D the digit vectors of S, has i-th
coordinate in [0, (h+k) s_i], so a field of w_i = (h+k) s_i + 1 values per
axis (stride w_1 ... w_(i-1)) encodes it without carries.  The mirrored
copy s - D stands in for -S, and hS - kS = hD + k(s - D) + h lo - k(lo + s)
coordinatewise (mod m for a group).  ``setops._fold_sum_diff`` folds the
mask 1 h times by the codes of D and k times by those of s - D; for a
lattice set its set bits are then the points of hS - kS, one each.  A
group fold reduces each axis with w_i > m_i mod m_i: the slabs of digits
[j m_i, (j+1) m_i), each picked by a mask that ``_fold_runs`` lays over
every other axis, are shifted down to [0, m_i) and ORed.  A field of
w_i <= m_i digits is already distinct mod m_i, so it is left as it is,
and the digit x on axis i stands for the residue
(x + h lo_i - k(lo_i + s_i)) mod m_i.  The set bits are then the elements
of hA - kA, one each.  ``_decode`` turns a set bit with digit vector x into
the point x + h lo - k(lo + s): ``lattice_sum_diff`` keeps it and
``group_sum_diff`` reduces it mod m, while ``lattice_sum_diff_card``,
``find_thickness``, ``thickening_bounds`` and ``embed_report`` only count
the bits.  The layout (``_group_layout`` for a group: lo_i, s_i, the
widths, the strides and the codes of D and s) depends on h and k only
through h + k, so ``_group_cards`` counts every pair of one total on one
layout, for the callers that compare two pairs or need only a count.  It
depends on the spread s_i, not on the moduli or on where S lies, so a
subset of a large group that sits in a short arc of each axis, wrapping
round the modulus or not, and a small lattice set far from the origin
stay small.  Its envelope is the ``setops`` one: a layout of more than
``MAX_SPAN_BITS`` bits, such as that of a 2-fold of a set spread round
the whole of a cyclic factor of order above 2^26, raises ``ValueError``
before any fold.  ``lattice_sum_diff`` raises ``OverflowError`` (from
``LatticeSet``) for a point outside signed 64 bits, which
``lattice_sum_diff_card`` counts.  The lattice folds return S for
(1, 0) without a span check.  ``thicken`` and ``sublattice_box`` check
their size against ``MAX_LATTICE_POINTS`` first.

The thickness search never builds B_t = phi(A) + box(0, t), where
box(s, t) = {(q_1 m_1, ..., q_d m_d) : s <= q_i < t}.  It rests on two facts:

* h box(0, t) - k box(0, t) = box(-k(t-1), h(t-1) + 1).  Per axis, a sum of
  h multipliers in [0, t) minus k of them takes every integer value in
  [-k(t-1), h(t-1)] (raise the terms one at a time from the lowest value)
  and no other; the axes are independent.
* psi(X + Y) = psi(X) + psi(Y) for psi(p) = sum_i p_i radix^i, because psi
  is additive on points.  With psi(-p) = -psi(p) this carries every
  Minkowski fold: psi(hS - kS) = h psi(S) - k psi(S).

So psi(hB_t - kB_t) = h psi(phi(A)) - k psi(phi(A)) + sum_i P_i, where P_i
is the progression {q m_i radix^i : -k(t-1) <= q <= h(t-1)}: d folds of
the image's mask, each over one run of (h + k)(t - 1) + 1 shifts
(``_fold_box``, O(log t) big-int shifts), instead of |A| t^d points;
``_thickened_psi`` gives the radix, psi(A) (by ``_psi``, the map
``linearize`` uses) and the steps m_i radix^i once per thickness for both
pairs of a scan, from A sorted once by ``_psi_columns``: the radix
exceeds every coordinate, so psi orders A by its reversed tuples whatever
the radix.  The scan returns the t it found with its two counts and that
t's radix, psi(A) and steps, and ``embed_report`` folds B_t itself from
them: one ``_thickened_psi`` per thickness.  Every coordinate of B_t
lies in [0, maxnorm], so with fold budget h + k the argument above makes
psi injective on hB_t - kB_t and the image has |hB_t - kB_t| elements.
The thickness search compares the bit counts of the final masks and
builds no set.  The envelope is the ``setops`` one: ``_check_sum_diff``
on psi(A), then the range and span checks ``sumset`` makes for each
progression step, all before ``_fold_sum_diff`` folds psi(A), so an
image outside signed 64 bits or ``MAX_SPAN_BITS`` raises and never
answers wrongly.  Each P_i contains 0, so each step's result lies
inside the final set's range and cannot raise when the final set fits.

``embed_report`` counts its output X = psi(B_t) without folding it again.
With P_i = {q m_i radix^i : 0 <= q < t}, X = psi(A) + P_1 + ... + P_d, and
at the t the scan returns its two masks are X + X and X - X themselves:
the (2, 0) mask is 2 psi(A) + sum_i {q m_i radix^i : 0 <= q <= 2(t-1)}, and
the (1, 1) mask is psi(A) - psi(A) + sum_i {q m_i radix^i : |q| <= t-1}.
These are Minkowski sums of integer sets, so the scan's two counts are
|X + X| and |X - X| for the X that was built, whatever the radix, and the
scan returns only when the first exceeds the second.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from operator import add, mod, mul, sub

from .setops import I64_MAX, IntSet, _bit_positions, _check_i64, _check_span, _check_sum_diff
from .setops import _fold_runs, _fold_sum_diff, _load_json, _strict_int, _strict_ints

# Most points ``thicken`` or ``sublattice_box`` may build.  A 2-d point costs
# about 230 bytes (tuple, ints, set entry), so one set stays near 240 MB.
MAX_LATTICE_POINTS = 1 << 20


@dataclass(frozen=True)
class GroupSpec:
    """Moduli (m_1, ..., m_d) of Z/m_1 x ... x Z/m_d, each at least 2."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "moduli", _strict_ints("modulus", self.moduli))
        if len(self.moduli) < 1:
            raise ValueError("a group needs at least one modulus")
        if any(m < 2 for m in self.moduli):
            raise ValueError("all moduli must be at least 2")
        if math.prod(self.moduli) > I64_MAX:
            raise ValueError("group order exceeds the signed 64-bit range")

    @property
    def dim(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        return math.prod(self.moduli)


@dataclass(frozen=True)
class GroupSubset:
    """Subset of a finite abelian group, stored as reduced residue vectors."""

    spec: GroupSpec
    elements: frozenset

    def __post_init__(self):
        elems = frozenset(_strict_ints("residue", e) for e in self.elements)
        object.__setattr__(self, "elements", elems)
        moduli = self.spec.moduli
        for e in elems:
            if len(e) != len(moduli):
                raise ValueError(f"element {e} has wrong dimension")
            if any(not (0 <= c < m) for c, m in zip(e, moduli)):
                raise ValueError(f"element {e} is not reduced modulo {moduli}")

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def from_json(cls, text: str) -> "GroupSubset":
        """Parse ``{"moduli": [...], "elements": [[...], ...]}``."""
        data = _load_json(text)
        if not isinstance(data, dict) or "moduli" not in data or "elements" not in data:
            raise ValueError('JSON input must carry "moduli" and "elements"')
        moduli = data["moduli"]
        elements = data["elements"]
        if not isinstance(moduli, list) or not isinstance(elements, list):
            raise ValueError('"moduli" and "elements" must be lists')
        if not all(isinstance(e, list) for e in elements):
            raise ValueError("elements must be lists of integers")
        subset = cls(GroupSpec(moduli), elements)
        if len(subset) != len(elements):
            raise ValueError("duplicate elements in JSON input")
        return subset

    def to_json(self) -> str:
        return json.dumps(
            {
                "moduli": list(self.spec.moduli),
                "elements": [list(e) for e in sorted(self.elements)],
            }
        )


@dataclass(frozen=True)
class LatticeSet:
    """Finite subset of Z^d."""

    dim: int
    points: frozenset

    def __post_init__(self):
        pts = frozenset(_strict_ints("coordinate", p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if _strict_int("dimension", self.dim) < 1:
            raise ValueError("dimension must be at least 1")
        for p in pts:
            if len(p) != self.dim:
                raise ValueError(f"point {p} has wrong dimension")
            for c in p:
                _check_i64(c)

    def __len__(self) -> int:
        return len(self.points)


# -- group arithmetic ----------------------------------------------------------


def group_sum_diff(a: GroupSubset, h: int, k: int) -> GroupSubset:
    """hA - kA inside the group: the decoded points of its fold, reduced mod m."""
    h, k = _check_fold("subset", a.elements, h, k)
    layout = _group_layout(a, h + k)
    points = _decode(_group_mask(a, layout, h, k), layout, h, k)
    return GroupSubset(a.spec, frozenset(tuple(map(mod, p, a.spec.moduli)) for p in points))


@dataclass(frozen=True)
class _Layout:
    """A point set's mixed-radix layout for folds hS - kS with a given h + k."""

    lows: list[int]  # per axis: the coordinate that digit 0 stands for
    spreads: list[int]  # per axis: the largest digit s_i
    widths: list[int]  # per axis: the field of (h + k) s_i + 1 digits
    strides: list[int]  # per axis: the product of the widths below it
    codes: list[int]  # the code of each point's digit vector D
    top: int  # the code of s


def _layout(lows: list[int], columns: list[list[int]], total: int) -> _Layout:
    """The layout of the points with digits ``columns`` (one list per axis,
    each digit at least 0) for every pair with h + k = ``total``.

    The layout must fit ``MAX_SPAN_BITS`` (module docstring)."""
    spreads = list(map(max, columns))
    widths = [total * s + 1 for s in spreads]
    _check_span(math.prod(widths) - 1)
    strides = list(itertools.accumulate(widths[:-1], mul, initial=1))
    codes = [0] * len(columns[0])
    for col, stride in zip(columns, strides):
        codes = list(map(add, codes, map(stride.__mul__, col)))
    top = sum(map(mul, spreads, strides))
    return _Layout(lows, spreads, widths, strides, codes, top)


def _decode(mask: int, layout: _Layout, h: int, k: int) -> list[tuple[int, ...]]:
    """The points x + h low - k(low + s) of the set bits of a fold's ``mask``,
    x being a bit's digit vector on ``layout``."""
    offsets = [h * low - k * (low + s) for low, s in zip(layout.lows, layout.spreads)]
    points = []
    for pos in _bit_positions(mask):
        p = []
        for w, o in zip(layout.widths, offsets):
            pos, x = divmod(pos, w)
            p.append(x + o)
        points.append(tuple(p))
    return points


def _group_layout(a: GroupSubset, total: int) -> _Layout:
    """A's layout for every pair with h + k = ``total``: on each axis, digit 0
    is the coordinate just after A's widest cyclic gap."""
    moduli = a.spec.moduli
    lows, columns = [], []
    for col, m in zip(zip(*a.elements), moduli):
        vals = sorted(set(col))
        nexts = vals[1:] + [vals[0] + m]
        low = max(zip(map(sub, nexts, vals), nexts))[1] % m
        lows.append(low)
        columns.append([(c - low) % m for c in col])
    return _layout(lows, columns, total)


def _group_mask(a: GroupSubset, layout: _Layout, h: int, k: int) -> int:
    """The mask of hA - kA on ``layout``, with |hA - kA| set bits."""
    widths, strides = layout.widths, layout.strides
    size = widths[-1] * strides[-1]
    mask = _fold_sum_diff(layout.codes, layout.top, h, k)
    for w, m, stride in zip(widths, a.spec.moduli, strides):
        if w <= m:  # at most m consecutive digits: already distinct mod m
            continue
        outer = size // (stride * w)
        reduced = 0
        for j in range(0, w, m):  # the slab of digits [j, j + m)
            block = (1 << (min(m, w - j) * stride)) - 1
            slab = _fold_runs(block, [(j * stride, stride * w, outer)])
            reduced |= (mask & slab) >> (j * stride)
        mask = reduced
    return mask


def _group_cards(a: GroupSubset, *pairs: tuple[int, int]) -> list[int]:
    """|hA - kA| for each pair (h, k), folded on one layout.

    The pairs are ints of one total h + k; the first is checked as
    ``group_sum_diff`` checks its counts."""
    layout = _group_layout(a, sum(_check_fold("subset", a.elements, *pairs[0])))
    return [_group_mask(a, layout, h, k).bit_count() for h, k in pairs]


# -- lattice embeddings ---------------------------------------------------------


def to_lattice(a: GroupSubset) -> LatticeSet:
    """Canonical embedding: each residue vector as its reduced representative."""
    return LatticeSet(a.spec.dim, frozenset(a.elements))


def reduce_to_cell(s: LatticeSet, spec: GroupSpec) -> LatticeSet:
    """Coordinatewise reduction into the fundamental cell [0,m_i)^d."""
    if s.dim != spec.dim:
        raise ValueError("dimension mismatch")
    return LatticeSet(
        s.dim,
        frozenset(tuple(c % m for c, m in zip(p, spec.moduli)) for p in s.points),
    )


def sublattice_box(spec: GroupSpec, lo: int, hi: int) -> LatticeSet:
    """Points (q_1 m_1, ..., q_d m_d) with lo <= q_i < hi; (hi-lo)^d of them."""
    lo, hi = _strict_int("lo", lo), _strict_int("hi", hi)
    if lo > hi:
        raise ValueError("need lo <= hi")
    _check_points((hi - lo) ** spec.dim)
    pts = frozenset(
        tuple(q * m for q, m in zip(qs, spec.moduli))
        for qs in itertools.product(range(lo, hi), repeat=spec.dim)
    )
    return LatticeSet(spec.dim, pts)


def minkowski_sum(a: LatticeSet, b: LatticeSet) -> LatticeSet:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return LatticeSet(
        a.dim,
        frozenset(
            tuple(x + y for x, y in zip(p, q)) for p in a.points for q in b.points
        ),
    )


def _check_points(count: int) -> None:
    if count > MAX_LATTICE_POINTS:
        raise ValueError(
            f"{count} lattice points exceed the budget of {MAX_LATTICE_POINTS}"
        )


# -- lattice folds ---------------------------------------------------------------


def _check_fold(what: str, points: frozenset, h: int, k: int) -> tuple[int, int]:
    """``h`` and ``k`` as ints, once they and the set ``points`` are checked
    for a fold; ``what`` names the set in the message for an empty one."""
    h, k = _strict_int("h", h), _strict_int("k", k)
    if not points:
        raise ValueError(f"{what} must be nonempty")
    if h < 0 or k < 0 or h + k < 1:
        raise ValueError("fold counts must be nonnegative with h + k >= 1")
    return h, k


def _lattice_fold(s: LatticeSet, h: int, k: int) -> tuple[_Layout, int]:
    """(layout, mask) of hS - kS, digit 0 on each axis at S's least coordinate."""
    cols = list(zip(*s.points))
    lows = list(map(min, cols))
    layout = _layout(lows, [[c - low for c in col] for col, low in zip(cols, lows)], h + k)
    return layout, _fold_sum_diff(layout.codes, layout.top, h, k)


def lattice_sum_diff(s: LatticeSet, h: int, k: int) -> LatticeSet:
    """hS - kS by exact vector arithmetic, decoded from its mixed-radix fold."""
    h, k = _check_fold("lattice set", s.points, h, k)
    if (h, k) == (1, 0):  # S itself: no span check
        return s
    layout, mask = _lattice_fold(s, h, k)
    return LatticeSet(s.dim, frozenset(_decode(mask, layout, h, k)))


def lattice_sum_diff_card(s: LatticeSet, h: int, k: int) -> int:
    """|hS - kS| without materializing the points: the bit count of its fold."""
    h, k = _check_fold("lattice set", s.points, h, k)
    if (h, k) == (1, 0):  # S itself: no span check
        return len(s)
    return _lattice_fold(s, h, k)[1].bit_count()


# -- thickening and transfer ------------------------------------------------------


def thicken(a: GroupSubset, t: int) -> LatticeSet:
    """The lattice set phi(A) + box(0, t); has exactly |A| * t^d points."""
    t = _strict_int("t", t)
    if not a.elements:
        raise ValueError("subset must be nonempty")
    if t < 1:
        raise ValueError("thickness must be at least 1")
    _check_points(len(a) * t**a.spec.dim)
    return minkowski_sum(to_lattice(a), sublattice_box(a.spec, 0, t))


def _psi_columns(a: GroupSubset) -> list[tuple[int, ...]]:
    """A's coordinates axis by axis, elements in ascending order of psi for
    every radix above their coordinates.

    Such a radix makes psi(p) the number with base-radix digits p, last
    axis most significant, so the order is that of the reversed tuples.
    """
    return list(zip(*sorted(a.elements, key=lambda p: p[::-1])))


def _thickened_psi(
    a: GroupSubset, cols: list[tuple[int, ...]], t: int, budget: int
) -> tuple[int, list[int], list[int]]:
    """(radix, psi(A) ascending, steps m_i radix^i) of ``linearize(thicken(a, t), budget)``.

    ``cols`` is ``_psi_columns(a)``; the radix exceeds every coordinate, so
    psi(A) comes out ascending.  The point budget and the radix's range are
    checked first, in that order.
    """
    moduli = a.spec.moduli
    _check_points(len(a) * t ** len(moduli))
    radix = _radix(budget, max(max(c) + m * (t - 1) for c, m in zip(cols, moduli)))
    return radix, _psi(cols, radix), [m * radix**i for i, m in enumerate(moduli)]


def _thickened_mask(
    images: list[int], steps: list[int], t: int, h: int, k: int
) -> tuple[int, int]:
    """(min, mask) of the image of hB_t - kB_t, from ``_thickened_psi``'s
    psi(A) and steps.

    Built as h psi(A) - k psi(A) plus one progression per axis, without a
    lattice point; with h + k at most the fold budget the mask has
    |hB_t - kB_t| set bits.  Every range and span check comes first, in
    order: those of ``IntSet`` and of ``setops._check_sum_diff`` on psi(A),
    then each axis's as ``sumset`` makes it.  Then ``setops._fold_sum_diff``
    folds h psi(A) - k psi(A) and each axis's progression from 0 is folded
    in; every step's result lies within the checked ends.
    """
    lo, hi = _check_i64(images[0]), _check_i64(images[-1])
    base, end = _check_sum_diff(lo, hi, h, k)
    for step in steps:
        base = _check_i64(base - k * (t - 1) * step)
        end = _check_i64(end + h * (t - 1) * step)
        _check_span(end - base)
    mask = _fold_sum_diff([e - lo for e in images], hi - lo, h, k)
    return base, _fold_box(mask, steps, (h + k) * (t - 1) + 1)


@dataclass(frozen=True)
class EmbeddingConsistency:
    """Outcome of the three compatibility checks between group and lattice folds."""

    identity_holds: bool
    lift_covered: bool
    embed_covered: bool

    @property
    def all_hold(self) -> bool:
        return self.identity_holds and self.lift_covered and self.embed_covered


def embedding_consistency(a: GroupSubset, h: int, k: int) -> EmbeddingConsistency:
    """Check how lattice folds of phi(A) relate to the embedded group fold.

    identity: reducing h*phi(A) - k*phi(A) into the cell gives phi(hA - kA);
    lift_covered: h*phi(A) - k*phi(A) lies in phi(hA - kA) + box(-k, h);
    embed_covered: phi(hA - kA) lies in h*phi(A) - k*phi(A) + box(-h+1, k+1).
    """
    h, k = _strict_int("h", h), _strict_int("k", k)
    if not a.elements:
        raise ValueError("subset must be nonempty")
    if h < 1 or k < 0:
        raise ValueError("need h >= 1 and k >= 0")
    spec = a.spec
    embedded = to_lattice(group_sum_diff(a, h, k))
    lifted = lattice_sum_diff(to_lattice(a), h, k)
    identity = reduce_to_cell(lifted, spec).points == embedded.points
    lift_cov = lifted.points <= minkowski_sum(
        embedded, sublattice_box(spec, -k, h)
    ).points
    embed_cov = embedded.points <= minkowski_sum(
        lifted, sublattice_box(spec, -h + 1, k + 1)
    ).points
    return EmbeddingConsistency(identity, lift_cov, embed_cov)


def find_thickness(
    a: GroupSubset,
    pair1: tuple[int, int],
    pair2: tuple[int, int],
    t_max: int,
) -> int:
    """Smallest t <= t_max where the group fold inequality transfers to B_t.

    Requires h1, h2 >= 1, equal fold totals h1+k1 == h2+k2, and the strict
    group inequality |h1 A - k1 A| > |h2 A - k2 A|; such a t exists for all
    sufficiently large t, so the scan fails only if t_max is too small.
    """
    t_max = _strict_int("t_max", t_max)
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    pair1, pair2 = [(_strict_int("h", h), _strict_int("k", k)) for h, k in (pair1, pair2)]
    (h1, k1), (h2, k2) = pair1, pair2
    if h1 < 1 or h2 < 1 or k1 < 0 or k2 < 0:
        raise ValueError("need h1, h2 >= 1 and k1, k2 >= 0")
    if h1 + k1 != h2 + k2:
        raise ValueError("fold totals must match: h1 + k1 == h2 + k2")
    c1, c2 = _group_cards(a, pair1, pair2)
    if c1 <= c2:
        raise ValueError(
            f"group inequality fails: |{h1}A-{k1}A| = {c1} <= |{h2}A-{k2}A| = {c2}"
        )
    return _thickness_scan(a, _psi_columns(a), pair1, pair2, t_max)[0]


def _thickness_scan(
    a: GroupSubset,
    cols: list[tuple[int, ...]],
    pair1: tuple[int, int],
    pair2: tuple[int, int],
    t_max: int,
) -> tuple[int, int, int, int, list[int], list[int]]:
    """``find_thickness`` for pairs and a group inequality it has checked;
    ``cols`` is ``_psi_columns(a)``.  Returns the t found with its counts
    |h1 B_t - k1 B_t| and |h2 B_t - k2 B_t|, radix, psi(A) and steps
    (``_thickened_psi``)."""
    (h1, k1), (h2, k2) = pair1, pair2
    for t in range(1, t_max + 1):
        # both pairs have the fold budget h1 + k1, so they share radix and psi(A)
        radix, images, steps = _thickened_psi(a, cols, t, h1 + k1)
        card1 = _thickened_mask(images, steps, t, h1, k1)[1].bit_count()
        card2 = _thickened_mask(images, steps, t, h2, k2)[1].bit_count()
        if card1 > card2:
            return t, card1, card2, radix, images, steps
    raise RuntimeError(f"no thickness up to {t_max} transfers the inequality")


@dataclass(frozen=True)
class ThickeningBounds:
    """Whether |h B_t - k B_t| obeys the two cardinality bounds."""

    upper_ok: bool
    lower_ok: bool


def thickening_bounds(a: GroupSubset, h: int, k: int, t: int) -> ThickeningBounds:
    """Check |h B_t - k B_t| against |hA - kA| scaled by the box-size bounds.

    Upper bound factor: ((h+k) t)^d.  Lower bound factor:
    ((h+k) t - 2 (h+k-1))^d, applied only when its base is nonnegative
    (reported vacuously true otherwise).
    """
    h, k, t = _strict_int("h", h), _strict_int("k", k), _strict_int("t", t)
    if not a.elements:
        raise ValueError("subset must be nonempty")
    if h < 1 or k < 0 or t < 1:
        raise ValueError("need h >= 1, k >= 0, t >= 1")
    d = a.spec.dim
    (group_card,) = _group_cards(a, (h, k))
    _, images, steps = _thickened_psi(a, _psi_columns(a), t, h + k)
    lat_card = _thickened_mask(images, steps, t, h, k)[1].bit_count()
    upper_ok = lat_card <= group_card * ((h + k) * t) ** d
    base = (h + k) * t - 2 * (h + k - 1)
    lower_ok = True if base < 0 else lat_card >= group_card * base**d
    return ThickeningBounds(upper_ok=upper_ok, lower_ok=lower_ok)


# -- linearization to the integers -------------------------------------------------


@dataclass(frozen=True)
class LinearImage:
    """Base-radix positional image of a lattice set."""

    radix: int
    image: IntSet


def linearize(s: LatticeSet, cap_l: int) -> LinearImage:
    """Flatten Z^d to Z by p -> sum_i p_i * radix^i with the minimal safe radix.

    radix = 2 * cap_l * max-norm(S) + 1 is the smallest value for which
    |hS - kS| = |h psi(S) - k psi(S)| is guaranteed for every h + k <= cap_l;
    keeping it minimal keeps images within 64-bit range.
    """
    cap_l = _strict_int("cap_l", cap_l)
    if not s.points:
        raise ValueError("lattice set must be nonempty")
    if cap_l < 1:
        raise ValueError("fold budget must be at least 1")
    cols = list(zip(*s.points))
    radix = _radix(cap_l, max(max(map(abs, col)) for col in cols))
    # IntSet raises OverflowError for an image outside the signed 64-bit range
    return LinearImage(radix=radix, image=IntSet(_psi(cols, radix)))


def _radix(budget: int, maxnorm: int) -> int:
    """``linearize``'s radix for fold budget ``budget`` and max-norm
    ``maxnorm``; ``OverflowError`` outside signed 64 bits."""
    return _check_i64(2 * budget * maxnorm + 1)


# -- full pipeline -------------------------------------------------------------------


class EmbedError(RuntimeError):
    """A stage of the group-to-integer pipeline failed."""


@dataclass(frozen=True)
class EmbedResult:
    """Integer MSTD set produced from a group MSTD subset, with stage data."""

    t: int
    radix: int
    image: IntSet
    delta: int


def embed_report(a: GroupSubset, t_max: int = 32) -> EmbedResult:
    """Run group -> thickened lattice set -> integers.

    ``delta`` is |X + X| - |X - X| for the output X, as the thickness scan
    counted it (module docstring)."""
    t_max = _strict_int("t_max", t_max)
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    sums, diffs = _group_cards(a, (2, 0), (1, 1))
    if sums <= diffs:
        raise ValueError("input is not an MSTD subset of its group")
    try:
        # the scan's counts are |X + X| and |X - X| of the image X of B_t
        t, sums, diffs, radix, images, steps = _thickness_scan(
            a, _psi_columns(a), (2, 0), (1, 1), t_max
        )
    except (ValueError, RuntimeError) as e:
        raise EmbedError(f"thickness search: {e}") from e
    # B_t itself, linearized with the fold budget 2 that |2B| vs |B - B| needs;
    # the scan has checked 2B_t's range and span, which contain B_t's
    lo, mask = _thickened_mask(images, steps, t, 1, 0)
    image = IntSet._from_sorted(_bit_positions(mask, lo), mask)
    return EmbedResult(t=t, radix=radix, image=image, delta=sums - diffs)


def _psi(cols: list[tuple[int, ...]], radix: int) -> list[int]:
    """psi(p) = sum_i p_i radix^i of the points with coordinates ``cols``
    (one tuple per axis), in their order."""
    images = list(cols[-1])
    for col in reversed(cols[:-1]):  # Horner's rule, a column at a time
        images = list(map(add, map(radix.__mul__, images), col))
    return images


def _fold_box(mask: int, steps: list[int], length: int) -> int:
    """``mask`` folded by each {q * step : 0 <= q < length} in turn, as one run each."""
    for step in steps:
        mask = _fold_runs(mask, [(0, step, length)])
    return mask
