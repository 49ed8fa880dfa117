"""Generators for explicit families of MSTD integer sets.

Every family here adjoins a single element to a symmetric core built from
an interval-with-hole base plus one or more arithmetic tracks (or, in the
general form, a generalized arithmetic progression).  Constructors
validate their parameters, build the set, and re-verify the MSTD
inequality by exact computation before returning: constructions are
cheap, so the belt-and-braces check costs nothing and catches
transcription slips.  Each public family function returns the set alone;
its private builder returns the set with the verified ``MstdDelta``, so
``mstd construct`` reports the delta without computing it a second time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .setops import IntSet, MstdDelta, _check_span, diffset, interval, mstd_delta
from .setops import sumset

# Most points ``Gap.expand`` may enumerate, collisions included.
MAX_GAP_POINTS = 1 << 20


class ConstructionError(ValueError):
    """Raised when construction parameters violate a required condition."""


@dataclass(frozen=True)
class Gap:
    """Generalized arithmetic progression {base + sum_i x_i*step_i}.

    ``dims`` holds one ``(step, offset, length)`` triple per dimension;
    coordinate ``x_i`` ranges over ``offset <= x_i <= offset + length - 1``.
    The expansion may have collisions; it is used as a plain set.
    """

    base: int
    dims: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        for step, _offset, length in self.dims:
            if step < 1:
                raise ConstructionError("progression steps must be positive")
            if length < 1:
                raise ConstructionError("progression lengths must be at least 1")

    @property
    def dim(self) -> int:
        return len(self.dims)

    def translate(self, offset: int) -> "Gap":
        return Gap(self.base + offset, self.dims)

    def expand(self) -> IntSet:
        points = math.prod(length for _step, _off, length in self.dims)
        if points > MAX_GAP_POINTS:
            raise ConstructionError(
                f"{points} progression points exceed the budget of {MAX_GAP_POINTS}"
            )
        ranges = [range(off, off + length) for _step, off, length in self.dims]
        steps = [step for step, _off, _length in self.dims]
        return IntSet(
            self.base + sum(x * s for x, s in zip(xs, steps))
            for xs in itertools.product(*ranges)
        )


def _require(cond: bool, message: str):
    if not cond:
        raise ConstructionError(message)


def _check_output_span(span: int) -> None:
    """The span check ``mstd_delta`` makes on a finished set, before it is built."""
    _check_span(2 * span)


def _verify_mstd(a: IntSet, family: str) -> tuple[IntSet, MstdDelta]:
    """``(a, mstd_delta(a))``; raises unless ``a`` is MSTD."""
    d = mstd_delta(a)
    if d.delta < 1:
        raise ConstructionError(
            f"internal error: {family} output is not MSTD (delta={d.delta})"
        )
    return a, d


# -- one-track family ---------------------------------------------------------


@dataclass(frozen=True)
class OneTrackParams:
    """Interval [0,m-1] with the element d removed, plus one m-step track."""

    m: int
    d: int
    k: int

    def validate(self):
        _require(self.m >= 4, "m must be at least 4")
        _require(1 <= self.d <= self.m - 1, "d must be in [1, m-1]")
        _require(2 * self.d != self.m, "d must not equal m/2")
        if 2 * self.d < self.m:
            _require(self.k >= 3, "k must be at least 3 when d < m/2")
        else:
            _require(self.k >= 4, "k must be at least 4 when d > m/2")


def one_track_family(p: OneTrackParams) -> IntSet:
    """MSTD set from a punctured interval and the track {m-d, 2m-d, ..., km-d}.

    The core B + track + mirrored B is symmetric about (k+1)m - 2d; adjoining
    m creates the extra sum 2m while leaving the difference set unchanged.
    """
    return _one_track(p)[0]


def _one_track(p: OneTrackParams) -> tuple[IntSet, MstdDelta]:
    p.validate()
    m, d, k = p.m, p.d, p.k
    center = (k + 1) * m - 2 * d
    _check_output_span(center)  # the set runs from 0 to center
    b = [e for e in range(m) if e != d]
    track = [j * m - d for j in range(1, k + 1)]
    core = IntSet(b + track + [center - e for e in b])
    return _verify_mstd(core | IntSet((m,)), "one-track family")


# -- two-track family ---------------------------------------------------------


@dataclass(frozen=True)
class TwoTrackParams:
    """Punctured interval plus the twin tracks {2m-d,...,km-d} and {2m+d,...,km+d}."""

    m: int
    d: int
    k: int

    def validate(self):
        _require(self.m >= 4, "condition (i) violated: m must be at least 4")
        _require(
            1 <= self.d <= self.m - 2 and 2 * self.d != self.m,
            "condition (ii) violated: d must be in [1, m-2] and d must not equal m/2",
        )
        if 2 * self.d < self.m:
            _require(
                3 * self.d != self.m,
                "condition (iii) violated: d must not equal m/3 when d < m/2",
            )
        else:
            _require(
                3 * self.d != 2 * self.m,
                "condition (iv) violated: d must not equal 2m/3 when d > m/2",
            )
        _require(self.k >= 3, "k must be at least 3")


def two_track_family(p: TwoTrackParams) -> IntSet:
    """MSTD set whose core carries two parallel tracks offset by -d and +d."""
    return _two_track(p)[0]


def _two_track(p: TwoTrackParams) -> tuple[IntSet, MstdDelta]:
    p.validate()
    m, d, k = p.m, p.d, p.k
    center = (k + 2) * m
    _check_output_span(center)  # the set runs from 0 to center
    b = [e for e in range(m) if e != d]
    tracks = [j * m - d for j in range(2, k + 1)] + [j * m + d for j in range(2, k + 1)]
    core = IntSet(b + tracks + [center - e for e in b])
    return _verify_mstd(core | IntSet((m,)), "two-track family")


# -- small explicit families ---------------------------------------------------


def hegarty_roesler_family(k: int) -> IntSet:
    """MSTD sets {0,2} + {3,7,...,4k-1} + {4k,4k+2} with 4 adjoined, k >= 3."""
    return _hegarty_roesler(k)[0]


def _hegarty_roesler(k: int) -> tuple[IntSet, MstdDelta]:
    _require(k >= 3, "k must be at least 3")
    _check_output_span(4 * k + 2)
    core = IntSet([0, 2] + [3 + 4 * j for j in range(k)] + [4 * k, 4 * k + 2])
    return _verify_mstd(core | IntSet((4,)), "hegarty-roesler family")


def two_dim_family(k: int) -> IntSet:
    """MSTD sets built on a 2-dimensional progression core, k >= 2.

    Core: {0,2} + {3,7,...,4k-1} + {9,13,...,4k+5} + {4k+6,4k+8}; adjoin 4.
    """
    return _two_dim(k)[0]


def _two_dim(k: int) -> tuple[IntSet, MstdDelta]:
    _require(k >= 2, "k must be at least 2")
    _check_output_span(4 * k + 8)
    core = IntSet(
        [0, 2]
        + [3 + 4 * j for j in range(k)]
        + [9 + 4 * j for j in range(k)]
        + [4 * k + 6, 4 * k + 8]
    )
    return _verify_mstd(core | IntSet((4,)), "two-dim family")


# -- generalized-progression family --------------------------------------------


@dataclass(frozen=True)
class GapBase:
    """Base data for the generalized-progression family.

    ``b`` must be a subset of [0, m-1] with full sumset [0, 2m-2] and full
    difference set [-m+1, m-1]; ``lstar`` expands inside [0, m-1], disjoint
    from ``b``, with min(lstar) - 1 in ``b``.
    """

    m: int
    b: IntSet
    lstar: Gap

    def validate(self):
        m = self.m
        _require(m >= 4, "m must be at least 4")
        _require(
            bool(self.b) and self.b.min >= 0 and self.b.max <= m - 1,
            "base set must be a nonempty subset of [0, m-1]",
        )
        _require(
            sumset(self.b, self.b) == interval(0, 2 * m - 2),
            "base set must have full sumset [0, 2m-2]",
        )
        _require(
            diffset(self.b, self.b) == interval(1 - m, m - 1),
            "base set must have full difference set [-m+1, m-1]",
        )
        ls = self.lstar.expand()
        _require(
            ls.min >= 0 and ls.max <= m - 1,
            "progression must expand inside [0, m-1]",
        )
        _require(
            all(e not in self.b for e in ls),
            "progression must be disjoint from the base set",
        )
        _require(
            ls.min - 1 in self.b,
            "the element just below the progression must lie in the base set",
        )


def gap_family(base: GapBase, k: int, variant: str = "one_to_k") -> IntSet:
    """MSTD set from a full-sumset base and a reflected progression block.

    The block is L = (m - lstar) + m*[1,k] for variant ``one_to_k`` and
    (m - lstar) + m*[0,k] for variant ``zero_to_k``; the latter additionally
    requires m not in lstar + lstar.  The core B + L + (center - B) is
    symmetric about center = min(L) + max(L).
    """
    return _gap(base, k, variant)[0]


def _gap(base: GapBase, k: int, variant: str) -> tuple[IntSet, MstdDelta]:
    base.validate()
    _require(k >= 2, "k must be at least 2")
    if variant == "one_to_k":
        j_range = range(1, k + 1)
    elif variant == "zero_to_k":
        j_range = range(0, k + 1)
    else:
        raise ConstructionError(f"unknown variant {variant!r}")
    m = base.m
    ls = base.lstar.expand()
    if variant == "zero_to_k":
        _require(
            m not in sumset(ls, ls),
            "variant zero_to_k requires m not in lstar + lstar",
        )
    b = base.b
    block_lo, block_hi = m - ls.max + j_range[0] * m, m - ls.min + k * m
    center = block_lo + block_hi
    lo = min(b.min, block_lo, center - b.max, m)
    _check_output_span(max(b.max, block_hi, center - b.min, m) - lo)
    block = IntSet(m - e + j * m for e in ls for j in j_range)
    core = IntSet(list(b) + list(block) + [center - e for e in b])
    return _verify_mstd(core | IntSet((m,)), f"gap family ({variant})")


def gap_base_recipe(p: Gap, r: int, s: int, m: int) -> GapBase:
    """Build a GapBase from a nonnegative progression P and cut points r, s.

    Requires min(P) = 0; with M = max(P), the inequalities r >= M+2,
    r+M+1 <= s <= 2r-1 and 2s <= m+r-1 guarantee that
    B = [0,r-1] + [s,m-1] has full sumset and difference set and that
    {r} + P fits in the hole between the two intervals.
    """
    exp = p.expand()
    _require(exp.min == 0, "progression must have minimum 0")
    big_m = exp.max
    _require(r >= big_m + 2, "r must be at least max(P) + 2")
    _require(
        r + big_m + 1 <= s <= 2 * r - 1,
        "s must satisfy r + max(P) + 1 <= s <= 2r - 1",
    )
    _require(2 * s <= m + r - 1, "m must satisfy 2s <= m + r - 1")
    _check_span(2 * (m - 1))  # the check GapBase.validate's B+B makes; B spans m - 1
    b = interval(0, r - 1) | interval(s, m - 1)
    base = GapBase(m=m, b=b, lstar=p.translate(r))
    base.validate()
    return base


# -- interval-with-hole arithmetic ---------------------------------------------


@dataclass(frozen=True)
class IntervalGapFacts:
    """Exact sumset/difference set of B = [0,r-1] + [s,m-1] and fullness flags."""

    sum_full: bool
    diff_full: bool
    sumset: IntSet
    diffset: IntSet


def interval_with_gap(m: int, r: int, s: int) -> IntervalGapFacts:
    """Compute B+B and B-B for B = [0,r-1] + [s,m-1] and flag fullness.

    ``sum_full`` reports B+B == [0, 2m-2]; ``diff_full`` reports
    B-B == [1-m, m-1].  Sufficient conditions: s <= 2r-1 together with
    2s <= m+r-1 forces the sumset full, and either inequality alone
    forces the difference set full.
    """
    _require(m >= 4, "m must be at least 4")
    _require(r >= 1, "r must be at least 1")
    _require(r + 1 <= s <= m - 1, "s must be in [r+1, m-1]")
    b = interval(0, r - 1) | interval(s, m - 1)
    ss = sumset(b, b)
    ds = diffset(b, b)
    return IntervalGapFacts(
        sum_full=(ss == interval(0, 2 * m - 2)),
        diff_full=(ds == interval(1 - m, m - 1)),
        sumset=ss,
        diffset=ds,
    )
