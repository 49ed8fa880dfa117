"""Finite abelian groups, lattice embeddings, and transfer to the integers.

A finite abelian group is a product of cyclic groups given by its moduli.
Subsets embed canonically into the integer lattice Z^d by taking the
reduced representative of each coordinate; the reverse direction reduces
lattice points coordinatewise.  Thickening a group subset by a box of
sublattice translates produces lattice sets whose iterated sum-difference
cardinalities eventually order the same way as in the group, and a base-m
positional map (``linearize``) flattens lattice sets into integer sets
while preserving those cardinalities up to a chosen fold budget.

``linearize`` is the only map from Z^d to Z, and lattice folds run on it:
with c the minimum corner of S, hS - kS = h(S - c) - k(S - c) + (h - k)c,
and fold budget h + k makes the radix exceed twice the magnitude of every
coordinate of h(S - c) - k(S - c).  The map is then injective there and
carries sums and differences, so folding the integer image with ``setops``
gives |hS - kS| exactly, and its balanced base-radix digits give the
points.  The envelope is the one ``linearize`` and ``setops`` share: image
values within signed 64 bits and a folded span of at most
``MAX_SPAN_BITS``; inputs outside it raise instead of answering wrongly.
``thicken`` and ``sublattice_box`` check their size against
``MAX_LATTICE_POINTS`` first.

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
is the progression {q m_i radix^i : -k(t-1) <= q <= h(t-1)}: d shift-ORs
of the image's mask with (h + k)(t - 1) + 1 shifts each instead of
|A| t^d points.  Every coordinate of B_t lies in [0, maxnorm], so with
fold budget h + k the argument above makes psi injective on hB_t - kB_t
and the image has |hB_t - kB_t| elements, without a corner translation.
The thickness search compares the bit counts of the final masks and
builds no set.  The envelope is the ``setops`` one: each progression step
makes the range and span checks ``sumset`` makes, so an image outside
signed 64 bits or ``MAX_SPAN_BITS`` raises and never answers wrongly.
Each P_i contains 0, so each step's result lies inside the final set's
range and cannot raise when the final set fits.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable

from .setops import I64_MAX, IntSet, MstdDelta, _bit_positions, _check_i64, _check_span
from .setops import _load_json, _shift_or, _strict_int, _strict_ints
from .setops import mstd_delta, sum_diff

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

    def elements(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(m) for m in self.moduli))


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
    """hA - kA inside the group, by exact modular arithmetic."""
    if not a.elements:
        raise ValueError("subset must be nonempty")
    if h < 0 or k < 0 or h + k < 1:
        raise ValueError("fold counts must be nonnegative with h + k >= 1")
    moduli = a.spec.moduli
    acc = {tuple(0 for _ in moduli)}
    for sign in (1,) * h + (-1,) * k:
        acc = {
            tuple((u + sign * v) % m for u, v, m in zip(x, p, moduli))
            for x in acc
            for p in a.elements
        }
    return GroupSubset(a.spec, frozenset(acc))


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


# -- folds on the linearized image ------------------------------------------------


def _check_fold(s: LatticeSet, h: int, k: int) -> None:
    if not s.points:
        raise ValueError("lattice set must be nonempty")
    if h < 0 or k < 0 or h + k < 1:
        raise ValueError("fold counts must be nonnegative with h + k >= 1")


def _corner_image(s: LatticeSet, budget: int) -> tuple[tuple[int, ...], LinearImage]:
    """The minimum corner c of S and the image of S - c under ``linearize``."""
    corner = tuple(map(min, zip(*s.points)))
    if any(corner):
        s = LatticeSet(
            s.dim, frozenset(tuple(x - c for x, c in zip(p, corner)) for p in s.points)
        )
    return corner, linearize(s, budget)


def lattice_sum_diff(s: LatticeSet, h: int, k: int) -> LatticeSet:
    """hS - kS by exact vector arithmetic, folded on the linearized image."""
    _check_fold(s, h, k)
    corner, lin = _corner_image(s, h + k)
    radix, half = lin.radix, lin.radix // 2
    offset = [(h - k) * c for c in corner]
    points = set()
    for v in sum_diff(lin.image, h, k):
        p = []
        for o in offset:
            digit = (v + half) % radix - half  # balanced: in [-half, half]
            p.append(o + digit)
            v = (v - digit) // radix
        points.add(tuple(p))
    return LatticeSet(s.dim, frozenset(points))


def lattice_sum_diff_card(s: LatticeSet, h: int, k: int) -> int:
    """|hS - kS| without materializing the points."""
    _check_fold(s, h, k)
    return len(sum_diff(_corner_image(s, h + k)[1].image, h, k))


# -- thickening and transfer ------------------------------------------------------


def thicken(a: GroupSubset, t: int) -> LatticeSet:
    """The lattice set phi(A) + box(0, t); has exactly |A| * t^d points."""
    if not a.elements:
        raise ValueError("subset must be nonempty")
    if t < 1:
        raise ValueError("thickness must be at least 1")
    _check_points(len(a) * t**a.spec.dim)
    return minkowski_sum(to_lattice(a), sublattice_box(a.spec, 0, t))


def _thickened_mask(
    a: GroupSubset, t: int, h: int, k: int, budget: int
) -> tuple[int, int, int]:
    """(radix, min, mask) of the image of hB_t - kB_t under
    ``linearize(thicken(a, t), budget)``.

    Built as h psi(A) - k psi(A) plus one progression per axis, without a
    lattice point; with h + k <= budget the mask has |hB_t - kB_t| set bits.
    Each axis is range-checked as ``sumset`` checks it, then ORs in the
    progression, shifted to start at 0, on the mask alone.
    """
    moduli = a.spec.moduli
    _check_points(len(a) * t ** len(moduli))
    tops = map(max, zip(*a.elements))
    maxnorm = max(top + m * (t - 1) for top, m in zip(tops, moduli))
    radix = _check_i64(2 * budget * maxnorm + 1)
    powers = [radix**i for i in range(len(moduli))]
    core = sum_diff(
        IntSet(sum(c * w for c, w in zip(p, powers)) for p in a.elements), h, k
    )
    lo, hi, mask = core.min, core.max, core.mask
    for m, w in zip(moduli, powers):
        step = m * w
        lo = _check_i64(lo - k * (t - 1) * step)
        hi = _check_i64(hi + h * (t - 1) * step)
        _check_span(hi - lo)
        mask = _shift_or(mask, range(0, (h + k) * (t - 1) * step + 1, step))
    return radix, lo, mask


def _thickened_fold(a: GroupSubset, t: int, h: int, k: int, budget: int) -> LinearImage:
    """The image of hB_t - kB_t under ``linearize(thicken(a, t), budget)`` as a set."""
    radix, lo, mask = _thickened_mask(a, t, h, k, budget)
    image = IntSet._from_sorted((_bit_positions(mask) + lo).tolist(), mask)
    return LinearImage(radix=radix, image=image)


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
    (h1, k1), (h2, k2) = pair1, pair2
    if h1 < 1 or h2 < 1 or k1 < 0 or k2 < 0:
        raise ValueError("need h1, h2 >= 1 and k1, k2 >= 0")
    if h1 + k1 != h2 + k2:
        raise ValueError("fold totals must match: h1 + k1 == h2 + k2")
    c1 = len(group_sum_diff(a, h1, k1))
    c2 = len(group_sum_diff(a, h2, k2))
    if c1 <= c2:
        raise ValueError(
            f"group inequality fails: |{h1}A-{k1}A| = {c1} <= |{h2}A-{k2}A| = {c2}"
        )
    return _thickness_scan(a, pair1, pair2, t_max)


def _thickness_scan(
    a: GroupSubset,
    pair1: tuple[int, int],
    pair2: tuple[int, int],
    t_max: int,
) -> int:
    """``find_thickness`` for pairs and a group inequality it has checked."""
    (h1, k1), (h2, k2) = pair1, pair2
    budget = h1 + k1
    for t in range(1, t_max + 1):
        card1 = _thickened_mask(a, t, h1, k1, budget)[2].bit_count()
        if card1 > _thickened_mask(a, t, h2, k2, budget)[2].bit_count():
            return t
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
    if not a.elements:
        raise ValueError("subset must be nonempty")
    if h < 1 or k < 0 or t < 1:
        raise ValueError("need h >= 1, k >= 0, t >= 1")
    d = a.spec.dim
    group_card = len(group_sum_diff(a, h, k))
    lat_card = _thickened_mask(a, t, h, k, h + k)[2].bit_count()
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
    if not s.points:
        raise ValueError("lattice set must be nonempty")
    if cap_l < 1:
        raise ValueError("fold budget must be at least 1")
    maxnorm = max((abs(c) for p in s.points for c in p), default=0)
    radix = _check_i64(2 * cap_l * maxnorm + 1)
    powers = [radix**i for i in range(s.dim)]
    # IntSet raises OverflowError for an image outside the signed 64-bit range
    images = [sum(c * w for c, w in zip(p, powers)) for p in s.points]
    return LinearImage(radix=radix, image=IntSet(images))


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
    """Run group -> thickened lattice set -> integers, verifying MSTD at the end."""
    if len(group_sum_diff(a, 2, 0)) <= len(group_sum_diff(a, 1, 1)):
        raise ValueError("input is not an MSTD subset of its group")
    try:
        t = _thickness_scan(a, (2, 0), (1, 1), t_max)
    except (ValueError, RuntimeError) as e:
        raise EmbedError(f"thickness search: {e}") from e
    try:
        # B_t itself, linearized with the fold budget 2 that |2B| vs |B - B| needs
        lin = _thickened_fold(a, t, 1, 0, 2)
    except (ValueError, OverflowError) as e:
        raise EmbedError(f"linearization: {e}") from e
    d: MstdDelta = mstd_delta(lin.image)
    if d.delta < 1:
        raise EmbedError(f"verification: image delta = {d.delta}, expected >= 1")
    return EmbedResult(t=t, radix=lin.radix, image=lin.image, delta=d.delta)
