"""Generators for explicit families of MSTD integer sets.

Every family adjoins one element to a core ``B + L + (a* - B)``: a base B,
a middle L of arithmetic tracks or a generalized arithmetic progression,
and B reflected about the center a* its theorem names.  The parameter
objects (``OneTrackParams``, ``TwoTrackParams``, ``GapBase``) check the
theorem's conditions when they are built, and the builders check a plain
``k`` (and ``gap``'s variant) on entry.  Each builder hands B and L as
runs ``(start, step, length)``, a* and the element to one tail,
``_symmetric_mstd``.  The builders state their runs: one per track, one
or two for a punctured interval, and for ``gap`` one per point of the
progression, stepping by m; only ``gap``'s base is a generic set, whose
runs ``setops._runs`` finds once.  The tail checks that L, as listed, is
its own mirror about a*: the mirror of ``(s, q, n)`` is
``(a* - s - (n-1) q, q, n)``, and L's runs must equal their mirrors
listed in reverse (B + (a* - B) is symmetric by construction).  It makes the families' one span check, on
the runs' ends, before it expands a point: every run list is O(1) long,
or bounded by ``MAX_GAP_POINTS`` or |B|.  It then sorts A's elements
once and re-verifies the MSTD inequality exactly: cheap checks that
catch transcription slips.  It returns the set, its ``MstdDelta`` and
a*, so ``mstd construct`` computes neither again; the public family
functions return the set alone.

The tail builds A's mask and counts |A+A| and |A-A| with
``setops._fold_runs`` on A's runs: B, L, a* - B and the adjoined element,
less min A.  A+A folds the mask over those runs, and A-A, moved up by
``top = max A - min A``, over their mirrors about ``top``.  Each fold
costs O(log n) big-int shifts per run, so a family of a few long
progressions costs a few dozen shifts, where in sorted order the tracks
of ``t3`` and the block of ``gap`` interleave and give no runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .setops import IntSet, MstdDelta, _check_span, _fold_runs, _runs
from .setops import _strict_int, _strict_ints, diffset, interval, mstd_delta, sumset

# Most points ``Gap.expand`` may enumerate, collisions included.
MAX_GAP_POINTS = 1 << 20


class ConstructionError(ValueError):
    """Raised when construction parameters violate a required condition."""


def _strict_fields(params, *names: str) -> None:
    """Replace each named field of a frozen dataclass by ``_strict_int`` of it."""
    for name in names:
        object.__setattr__(params, name, _strict_int(name, getattr(params, name)))


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
        _strict_fields(self, "base")
        object.__setattr__(self, "dims", tuple(_strict_ints("dims", d) for d in self.dims))
        for step, _offset, length in self.dims:
            if step < 1:
                raise ConstructionError("progression steps must be positive")
            if length < 1:
                raise ConstructionError("progression lengths must be at least 1")

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


def _mirror(runs: list, center: int) -> list:
    """The runs of ``center - X``, where ``X`` is the set of ``runs``, in the same order."""
    return [(center - s - (n - 1) * q, q, n) for s, q, n in runs]


def _punctured(m: int, d: int) -> list:
    """The runs of [0, m-1] less d, for 1 <= d <= m-1."""
    runs = [(0, 1, d)]
    if d < m - 1:
        runs.append((d + 1, 1, m - 1 - d))
    return runs


def _symmetric_mstd(b: list, middle: list, center: int, adjoined: int, family: str):
    """``(A, mstd_delta(A), center)`` for ``A = B + middle + (center - B) + {adjoined}``.

    ``b`` and ``middle`` are runs ``(start, step, length)`` with ``step >= 0``
    and ``length >= 1``.  Raises unless ``middle`` is listed as its own
    mirror about ``center``, which makes the core symmetric about it, and
    ``A`` is MSTD.  The counts fold A's runs (module docstring).
    """
    if middle != _mirror(middle, center)[::-1]:
        raise ConstructionError(
            f"internal error: {family} core is not symmetric about {center}"
        )
    runs = b + middle + _mirror(b, center) + [(adjoined, 0, 1)]
    lo = min(s for s, _q, _n in runs)
    top = max(s + (n - 1) * q for s, q, n in runs) - lo
    _check_span(2 * top)  # mstd_delta's span check, before A is built
    # a run of step 0 is one point, however long
    points = itertools.chain.from_iterable(
        range(s, s + (n - 1) * q + 1, q or 1) for s, q, n in runs
    )
    elems = sorted({*points})
    runs = [(s - lo, q, n) for s, q, n in runs]
    mask = _fold_runs(1, runs)
    sums = _fold_runs(mask, runs)
    diffs = _fold_runs(mask, _mirror(runs, top))  # A - A, moved up by top
    d = MstdDelta(sums.bit_count(), diffs.bit_count())
    if d.delta < 1:
        raise ConstructionError(
            f"internal error: {family} output is not MSTD (delta={d.delta})"
        )
    return IntSet._from_sorted(elems, mask), d, center


# -- one-track family ---------------------------------------------------------


@dataclass(frozen=True)
class OneTrackParams:
    """Interval [0,m-1] with the element d removed, plus one m-step track."""

    m: int
    d: int
    k: int

    def __post_init__(self):
        _strict_fields(self, "m", "d", "k")
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


def _one_track(p: OneTrackParams) -> tuple[IntSet, MstdDelta, int]:
    m, d, k = p.m, p.d, p.k
    center = (k + 1) * m - 2 * d
    return _symmetric_mstd(_punctured(m, d), [(m - d, m, k)], center, m, "one-track family")


# -- two-track family ---------------------------------------------------------


@dataclass(frozen=True)
class TwoTrackParams:
    """Punctured interval plus the twin tracks {2m-d,...,km-d} and {2m+d,...,km+d}."""

    m: int
    d: int
    k: int

    def __post_init__(self):
        _strict_fields(self, "m", "d", "k")
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


def _two_track(p: TwoTrackParams) -> tuple[IntSet, MstdDelta, int]:
    m, d, k = p.m, p.d, p.k
    center = (k + 2) * m
    tracks = [(2 * m - d, m, k - 1), (2 * m + d, m, k - 1)]
    return _symmetric_mstd(_punctured(m, d), tracks, center, m, "two-track family")


# -- small explicit families ---------------------------------------------------


def hegarty_roesler_family(k: int) -> IntSet:
    """MSTD sets {0,2} + {3,7,...,4k-1} + {4k,4k+2} with 4 adjoined, k >= 3."""
    return _hegarty_roesler(k)[0]


def _hegarty_roesler(k: int) -> tuple[IntSet, MstdDelta, int]:
    k = _strict_int("k", k)
    _require(k >= 3, "k must be at least 3")
    return _symmetric_mstd([(0, 2, 2)], [(3, 4, k)], 4 * k + 2, 4, "hegarty-roesler family")


def two_dim_family(k: int) -> IntSet:
    """MSTD sets built on a 2-dimensional progression core, k >= 2.

    Core: {0,2} + {3,7,...,4k-1} + {9,13,...,4k+5} + {4k+6,4k+8}; adjoin 4.
    """
    return _two_dim(k)[0]


def _two_dim(k: int) -> tuple[IntSet, MstdDelta, int]:
    k = _strict_int("k", k)
    _require(k >= 2, "k must be at least 2")
    tracks = [(3, 4, k), (9, 4, k)]
    return _symmetric_mstd([(0, 2, 2)], tracks, 4 * k + 8, 4, "two-dim family")


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

    def __post_init__(self):
        _strict_fields(self, "m")
        m = self.m
        _require(m >= 4, "m must be at least 4")
        _require(
            bool(self.b) and self.b.min >= 0 and self.b.max <= m - 1,
            "base set must be a nonempty subset of [0, m-1]",
        )
        # B+B and B-B lie in intervals of 2m-1 integers, so each is full
        # exactly when it has 2m-1 elements
        d = mstd_delta(self.b)
        _require(d.sum_card == 2 * m - 1, "base set must have full sumset [0, 2m-2]")
        _require(
            d.diff_card == 2 * m - 1,
            "base set must have full difference set [-m+1, m-1]",
        )
        ls = self._lstar_points
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

    @cached_property
    def _lstar_points(self) -> IntSet:
        """``lstar`` expanded, once per base."""
        return self.lstar.expand()


def gap_family(base: GapBase, k: int, variant: str = "one_to_k") -> IntSet:
    """MSTD set from a full-sumset base and a reflected progression block.

    The block is L = (m - lstar) + m*[1,k] for variant ``one_to_k`` and
    (m - lstar) + m*[0,k] for variant ``zero_to_k``.  The core
    C = B + L + (c - B) is symmetric about c = min(L) + max(L); m is adjoined.

    ``zero_to_k`` also requires m not in lstar + lstar and, as shown here,
    sigma = min(lstar) + max(lstar) <= (k-1)m, i.e. c = (k+2)m - sigma >= 3m.
    As 0 and m-1 lie in B, lstar lies in [1, m-2]: only k = 2 can break this,
    and ``one_to_k``'s c = (k+3)m - sigma always exceeds 3m.  The sums
    B+B = [0, 2m-2], B + (c-B) = c + (B-B) = [c-m+1, c+m-1] and
    (c-B) + (c-B) = [2c-2m+2, 2c] cover [0, 2c] if c <= 3m-2; at c = 3m-1
    they miss only 2m-1 = (l-1) + (2m-l) in B + L, l = min(lstar), and its
    mirror 2c-2m+1.  So if c < 3m, A = C + {m} has A+A = C+C and
    |A-A| >= |C-C| = |C+C|: A is not MSTD.  If c >= 3m, 2m is no sum of C:
    B+B stops at 2m-2, b + (m-l+jm) = 2m needs b = l, two block elements
    need j1 + j2 = 1 and l1 + l2 = m, and the other sums exceed c - m >= 2m.
    """
    return _gap(base, k, variant)[0]


def _gap(base: GapBase, k: int, variant: str) -> tuple[IntSet, MstdDelta, int]:
    """``gap_family``; ``base`` was checked when it was built."""
    k = _strict_int("k", k)
    _require(k >= 2, "k must be at least 2")
    if variant == "one_to_k":
        j_range = range(1, k + 1)
    elif variant == "zero_to_k":
        j_range = range(0, k + 1)
    else:
        raise ConstructionError(f"unknown variant {variant!r}")
    m = base.m
    ls = base._lstar_points
    if variant == "zero_to_k":
        _require(
            not any(m - x in ls for x in ls),
            "variant zero_to_k requires m not in lstar + lstar",
        )
        _require(
            ls.min + ls.max <= (k - 1) * m,
            "variant zero_to_k requires min(lstar) + max(lstar) <= (k-1)*m; "
            "otherwise 2m is already a sum of the core and the set is not MSTD",
        )
    b = base.b
    center = (j_range[0] + k + 2) * m - ls.min - ls.max  # min(L) + max(L)
    block = [(m - e + j_range[0] * m, m, len(j_range)) for e in ls]
    return _symmetric_mstd(_runs(list(b)), block, center, m, f"gap family ({variant})")


def gap_base_recipe(p: Gap, r: int, s: int, m: int) -> GapBase:
    """Build a GapBase from a nonnegative progression P and cut points r, s.

    Requires min(P) = 0; with M = max(P), the inequalities r >= M+2,
    r+M+1 <= s <= 2r-1 and 2s <= m+r-1 guarantee that
    B = [0,r-1] + [s,m-1] has full sumset and difference set and that
    {r} + P fits in the hole between the two intervals.
    """
    r, s, m = _strict_int("r", r), _strict_int("s", s), _strict_int("m", m)
    exp = p.expand()
    _require(exp.min == 0, "progression must have minimum 0")
    big_m = exp.max
    _require(r >= big_m + 2, "r must be at least max(P) + 2")
    _require(
        r + big_m + 1 <= s <= 2 * r - 1,
        "s must satisfy r + max(P) + 1 <= s <= 2r - 1",
    )
    _require(2 * s <= m + r - 1, "m must satisfy 2s <= m + r - 1")
    _check_span(2 * (m - 1))  # GapBase's mstd_delta(B) check; B spans m - 1
    b = interval(0, r - 1) | interval(s, m - 1)
    return GapBase(m=m, b=b, lstar=p.translate(r))


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
    B-B == [1-m, m-1].  B holds 0 and m-1 inside [0, m-1], so each is full
    exactly when it has 2m-1 elements.  Sufficient conditions: s <= 2r-1
    together with 2s <= m+r-1 forces the sumset full, and either inequality
    alone forces the difference set full.
    """
    m, r, s = _strict_int("m", m), _strict_int("r", r), _strict_int("s", s)
    _require(m >= 4, "m must be at least 4")
    _require(r >= 1, "r must be at least 1")
    _require(r + 1 <= s <= m - 1, "s must be in [r+1, m-1]")
    _check_span(2 * (m - 1))  # B+B and B-B span 2(m-1)
    b = interval(0, r - 1) | interval(s, m - 1)
    ss = sumset(b, b)
    ds = diffset(b, b)
    return IntervalGapFacts(
        sum_full=len(ss) == 2 * m - 1,
        diff_full=len(ds) == 2 * m - 1,
        sumset=ss,
        diffset=ds,
    )
