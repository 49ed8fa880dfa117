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
where the output is psi: ``linearize`` itself and embed's image (below).

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
(1, 0) without a span check.  ``thicken``, ``sublattice_box`` and
``minkowski_sum`` check their size against ``MAX_LATTICE_POINTS`` first.

The thickness search never builds B_t = phi(A) + box(0, t), where
box(s, t) = {(q_1 m_1, ..., q_d m_d) : s <= q_i < t}.  Per axis, a sum of
h multipliers in [0, t) minus k of them takes every integer value in
[-k(t-1), h(t-1)] (raise the terms one at a time from the lowest value)
and no other, and the axes are independent, so with S = phi(A)

    hB_t - kB_t = hS - kS + box(-k(t-1), h(t-1) + 1).

On S's lattice layout its points are hD + k(s - D) + {q m : 0 <= q_i <=
(h+k)(t-1)} moved by h lo - k(lo + s + (t-1) m): the mask of hD + k(s - D),
folded on each axis by one run of (h + k)(t - 1) + 1 shifts by m_i stride_i
(``_fold_box``, O(log t) big-int shifts), instead of |A| t^d points.  Its
digits on axis i lie in [0, (h+k)(s_i + m_i(t-1))], so ``_box_cards``
widens each field by h + k times the pad m_i(t-1) while ``top`` stays the
code of A's own s; the set bits are the points of hB_t - kB_t, one each.
Both pairs of a scan share one layout, checked after the point budget and
before any fold.  Like every layout it depends on spreads, not on psi's
radix, so B_t of a subset of Z/2 x Z/1000 at t = 30 is counted on about
6.9e6 bits where psi's image of B_t - B_t would span about 6.7e9.

``embed_report`` builds its output X = psi(B_t) = ``linearize(B_t, 2)``
once, at the t the scan found (``_box_image``): psi is additive on points,
so X is psi(A) (by ``_psi``) folded by each progression
{q m_i radix^i : 0 <= q < t}, after X's range and span checks.  Its delta
is the scan's |2B_t| - |B_t - B_t|: every coordinate of B_t lies in
[0, maxnorm], so fold budget 2's radix 4 maxnorm + 1 makes psi one-to-one
on 2B_t and on B_t - B_t, and |X + X| = |2B_t| and |X - X| = |B_t - B_t|,
the guarantee that makes X an MSTD set in the first place.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from operator import add, mod, mul, sub

from .setops import I64_MAX, IntSet, _bit_positions, _check_i64, _check_span, _fold_runs
from .setops import _fold_sum_diff, _load_json, _shift_or, _strict_int, _strict_ints

# Most points ``thicken``, ``sublattice_box`` or ``minkowski_sum`` (its |A| |B|
# sums) may build.  A 2-d point costs about 230 bytes (tuple, ints, set
# entry), so one set stays near 240 MB.
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

    def to_dict(self) -> dict:
        return {
            "moduli": list(self.spec.moduli),
            "elements": [list(e) for e in sorted(self.elements)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class LatticeSet:
    """Finite subset of Z^d."""

    dim: int
    points: frozenset

    def __post_init__(self):
        pts = frozenset(_strict_ints("coordinate", p) for p in self.points)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dim", _strict_int("dimension", self.dim, 1))
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
    widths: list[int]  # per axis: the field of (h + k)(s_i + pad_i) + 1 digits
    strides: list[int]  # per axis: the product of the widths below it
    codes: list[int]  # the code of each point's digit vector D
    top: int  # the code of s


def _layout(
    lows: list[int], columns: list[list[int]], total: int, pads: list[int] | None = None
) -> _Layout:
    """The layout of the points with digits ``columns`` (one list per axis,
    each digit at least 0) for every pair with h + k = ``total``, each
    axis's field widened by ``total`` times its pad (none by default).

    The layout must fit ``MAX_SPAN_BITS`` (module docstring)."""
    spreads = list(map(max, columns))
    widths = [total * (s + p) + 1 for s, p in zip(spreads, pads or itertools.repeat(0))]
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
    lo = _strict_int("lo", lo)
    hi = _strict_int("hi", hi, lo)
    _check_points((hi - lo) ** spec.dim)
    pts = frozenset(
        tuple(q * m for q, m in zip(qs, spec.moduli))
        for qs in itertools.product(range(lo, hi), repeat=spec.dim)
    )
    return LatticeSet(spec.dim, pts)


def minkowski_sum(a: LatticeSet, b: LatticeSet) -> LatticeSet:
    """A + B, built from its |A| |B| sums after the point budget's check."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    _check_points(len(a) * len(b))
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
    h, k = _strict_int("h", h, 0), _strict_int("k", k, 0)
    if not points:
        raise ValueError(f"{what} must be nonempty")
    if h + k < 1:
        raise ValueError("h + k must be at least 1")
    return h, k


def _lattice_layout(points: frozenset, total: int, pads: list[int] | None = None) -> _Layout:
    """``_layout`` of lattice ``points``, digit 0 on each axis at their least coordinate."""
    cols = list(zip(*points))
    lows = list(map(min, cols))
    return _layout(lows, [[c - low for c in col] for col, low in zip(cols, lows)], total, pads)


def _lattice_fold(s: LatticeSet, h: int, k: int) -> tuple[_Layout, int]:
    """(layout, mask) of hS - kS, digit 0 on each axis at S's least coordinate."""
    layout = _lattice_layout(s.points, h + k)
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
    t = _strict_int("t", t, 1)
    if not a.elements:
        raise ValueError("subset must be nonempty")
    _check_points(len(a) * t**a.spec.dim)
    return minkowski_sum(to_lattice(a), sublattice_box(a.spec, 0, t))


def _box_cards(a: GroupSubset, t: int, *pairs: tuple[int, int]) -> list[int]:
    """|hB_t - kB_t| for each pair (h, k), B_t = ``thicken(a, t)``, counted on
    one layout of phi(A) without building B_t (module docstring).

    The pairs are ints of one total h + k.  The point budget is checked
    first, then the layout's span, before any fold."""
    moduli = a.spec.moduli
    _check_points(len(a) * t ** len(moduli))
    total = sum(pairs[0])
    layout = _lattice_layout(a.elements, total, [m * (t - 1) for m in moduli])
    steps = list(map(mul, moduli, layout.strides))
    length = total * (t - 1) + 1
    masks = (_fold_sum_diff(layout.codes, layout.top, h, k) for h, k in pairs)
    return [_fold_box(mask, steps, length).bit_count() for mask in masks]


def _box_image(a: GroupSubset, t: int) -> LinearImage:
    """``linearize(thicken(a, t), 2)``, folded from psi(A) without building B_t.

    The point budget is checked first, then the radix's range, then the
    image's range and span, before any fold."""
    moduli = a.spec.moduli
    _check_points(len(a) * t ** len(moduli))
    cols = list(zip(*a.elements))
    radix = _radix(2, max(max(c) + m * (t - 1) for c, m in zip(cols, moduli)))
    images = sorted(_psi(cols, radix))
    steps = [m * radix**i for i, m in enumerate(moduli)]
    lo = images[0]  # at least 0, as every coordinate of B_t is
    _check_span(_check_i64(images[-1] + (t - 1) * sum(steps)) - lo)
    mask = _fold_box(_shift_or(1, (e - lo for e in images)), steps, t)
    return LinearImage(radix, IntSet._from_sorted(_bit_positions(mask, lo), mask))


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
    h, k = _strict_int("h", h, 1), _strict_int("k", k, 0)
    if not a.elements:
        raise ValueError("subset must be nonempty")
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
    t_max = _strict_int("t_max", t_max, 1)
    pair1, pair2 = [
        (_strict_int(f"h{i}", h, 1), _strict_int(f"k{i}", k, 0))
        for i, (h, k) in enumerate((pair1, pair2), 1)
    ]
    (h1, k1), (h2, k2) = pair1, pair2
    if h1 + k1 != h2 + k2:
        raise ValueError("fold totals must match: h1 + k1 == h2 + k2")
    c1, c2 = _group_cards(a, pair1, pair2)
    if c1 <= c2:
        raise ValueError(
            f"group inequality fails: |{h1}A-{k1}A| = {c1} <= |{h2}A-{k2}A| = {c2}"
        )
    return _thickness_scan(a, pair1, pair2, t_max)[0]


def _thickness_scan(
    a: GroupSubset, pair1: tuple[int, int], pair2: tuple[int, int], t_max: int
) -> tuple[int, int, int]:
    """``find_thickness`` for pairs and a group inequality it has checked.
    Returns the t found with its counts |h1 B_t - k1 B_t| and
    |h2 B_t - k2 B_t|."""
    for t in range(1, t_max + 1):
        card1, card2 = _box_cards(a, t, pair1, pair2)
        if card1 > card2:
            return t, card1, card2
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
    h, k, t = _strict_int("h", h, 1), _strict_int("k", k, 0), _strict_int("t", t, 1)
    if not a.elements:
        raise ValueError("subset must be nonempty")
    d = a.spec.dim
    (group_card,) = _group_cards(a, (h, k))
    (lat_card,) = _box_cards(a, t, (h, k))
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
    cap_l = _strict_int("cap_l", cap_l, 1)
    if not s.points:
        raise ValueError("lattice set must be nonempty")
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
    counted it on B_t (module docstring)."""
    t_max = _strict_int("t_max", t_max, 1)
    sums, diffs = _group_cards(a, (2, 0), (1, 1))
    if sums <= diffs:
        raise ValueError("input is not an MSTD subset of its group")
    try:
        t, sums, diffs = _thickness_scan(a, (2, 0), (1, 1), t_max)
        lin = _box_image(a, t)
    except (ValueError, OverflowError, RuntimeError) as e:
        raise EmbedError(f"thickness search: {e}") from e
    return EmbedResult(t=t, radix=lin.radix, image=lin.image, delta=sums - diffs)


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
