"""Covering counts for parity graphs in Z/n x Z/2, by a closed form.

A parity graph assigns one bit eps_i to each residue i, giving the
n-element subset {(i, eps_i)} of Z/n x Z/2.  Its difference set always
misses (0, 1), so any parity graph whose sumset covers the whole group
is an MSTD subset of the group.  This module counts exactly how many of
the 2^n parity graphs cover, tabulates per-element miss counts, and
surfaces covering witnesses for the embedding pipeline.

The counts come from symmetry, not enumeration.  The sumset misses
(b, p) exactly when eps(b - i) = eps(i) + c for all i, with c = 1 - p:
the graph is fixed by the twisted reflection R(b, c).  For e | n, let
T(b, c, e, u) count the graphs also fixed by the twisted translation
S(e, u): eps(i + e) = eps(i) + u.  Such a graph is set by its bits on
[0, e) and needs (n/e)*u even.  The map i -> b - i (mod e) pairs up
[0, e): each pair carries one free bit, and each of its f fixed points
(2i = b mod e) one bit, provided c + k*u is even, where b - i = i + k*e
(mod n).  So T is 0 or 2^((e + f)/2); the miss count of (b, p) is
T(b, 1 - p, n, 0).

A graph that fails to cover is fixed by exactly n/t of the R(b, c),
where t is its minimal twisted period: its reflections are one coset of
its translations, the multiples of t.  The divisor weight
w(e) = e * prod(1 - q for primes q | n/e) = e * sum(k * mu(k) for k | n/e)
sums to t over t | e | n, and e is a twisted period for at most one u, so

    #not covering = (1/n) * sum_{e | n} w(e) * sum_{b, c, u} T(b, c, e, u).

Translating by one conjugates R(b, c) to R(b + 2, c) and commutes with
S(e, u), so T depends on b only through b mod gcd(2, n): the inner sum
has at most two distinct terms.

Witnesses are re-checked by a different mechanism: the one group fold
counts |A+A| and |A-A| of the witness as the set bits of its masks, with
no reference to reflections.  Both folds have h + k = 2, so
``grouplattice._group_cards`` folds them on one layout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .grouplattice import GroupSpec, GroupSubset, _group_cards
from .setops import _strict_int, _strict_ints

# 2^4096 has 1,234 decimal digits: far below the 4,300-digit int-to-str
# limit that JSON output hits, and a full --table takes milliseconds.
MAX_COUNT_N = 4096

# Draws before find_group_mstd's "random" strategy gives up.  For n >= 7
# at least a fifth of all parity graphs cover (28 of 128 at n = 7), so
# only n < 7, where none does, runs them all.
_RANDOM_TRIALS = 20000


@dataclass(frozen=True)
class ParityGraph:
    """The subset {(i, eps_i) : 0 <= i < n} of Z/n x Z/2."""

    n: int
    eps: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "eps", _strict_ints("eps", self.eps))
        object.__setattr__(self, "n", _strict_int("n", self.n, 2))
        if len(self.eps) != self.n:
            raise ValueError("eps must have exactly n bits")
        if any(e not in (0, 1) for e in self.eps):
            raise ValueError("eps entries must be 0 or 1")

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "ParityGraph":
        """The graph whose eps_i is bit i of ``mask``, which must be in [0, 2^n)."""
        n, mask = _strict_int("n", n, 2), _strict_int("mask", mask)
        if not 0 <= mask < 1 << n:
            raise ValueError(f"mask must be in [0, 2^{n})")
        return cls(n, tuple((mask >> i) & 1 for i in range(n)))

    @property
    def mask(self) -> int:
        return sum(e << i for i, e in enumerate(self.eps))

    def to_subset(self) -> GroupSubset:
        return GroupSubset(
            GroupSpec((self.n, 2)),
            frozenset((i, e) for i, e in enumerate(self.eps)),
        )


def covers_group(g: ParityGraph) -> bool:
    """True iff the sumset of the graph covers all of Z/n x Z/2.

    By the reflection test behind the closed form (module docstring), the
    same test find_group_mstd filters with; the tests check it against
    brute-force group sumsets and against the closed-form counts.
    """
    return _mask_covers(g.mask, g.n)


def coverage_bound(n: int) -> int:
    """The union bound: 2^n minus the sum of all 2n miss counts."""
    n = _strict_int("n", n, 2)
    return 2**n - n * 2 ** (n // 2 + 1)


def _negate(mask: int, n: int) -> int:
    """The mask of -E for the mask of E in Z/n: bit i is bit -i mod n."""
    rev = int(format(mask, f"0{n}b")[::-1], 2)  # bit i is bit n - 1 - i
    return ((rev << 1) | (rev >> (n - 1))) & ((1 << n) - 1)


def _mask_covers(mask: int, n: int) -> bool:
    """True iff no b-reflection of the mask equals the mask or its complement.

    The b-reflections are the rotations of -E, and an n-bit string is a
    rotation of r exactly when it occurs in r's string written twice."""
    r = format(_negate(mask, n), f"0{n}b") * 2
    return format(mask, f"0{n}b") not in r and format(mask ^ ((1 << n) - 1), f"0{n}b") not in r


@dataclass(frozen=True)
class CoverReport:
    """Exact covering count, the closed-form bound, and per-element miss counts."""

    n: int
    covering: int
    bound: int
    misses: dict

    @property
    def meets_bound(self) -> bool:
        return self.covering >= self.bound

    def to_dict(self, include_table: bool = False) -> dict:
        out = {
            "n": self.n,
            "covering": self.covering,
            "bound": self.bound,
            "meets_bound": self.meets_bound,
        }
        if include_table:
            out["misses"] = [
                {"g": [b, p], "count": self.misses[(b, p)]}
                for (b, p) in sorted(self.misses)
            ]
        return out


def _twisted_fixed(n: int, b: int, c: int, e: int, u: int) -> int:
    """T(b, c, e, u): the graphs fixed by both R(b, c) and S(e, u)."""
    if e % 2:  # the fixed points i in [0, e) of i -> b - i (mod e)
        fixed = [(b * (e + 1) // 2) % e]
    else:
        fixed = [] if b % 2 else [(b // 2) % e, (b // 2 + e // 2) % e]
    if u * (n // e) % 2 or any((c + ((b - i) % n - i) // e * u) % 2 for i in fixed):
        return 0
    return 1 << ((e + len(fixed)) // 2)


def count_covering(n: int) -> CoverReport:
    """Count the parity graphs whose sumset covers Z/n x Z/2, by the closed form.

    Also tabulates, for every group element g, how many graphs miss g in
    their sumset.  Exact for every n up to MAX_COUNT_N.
    """
    n = _strict_int("n", n, 2, MAX_COUNT_N)
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    g = 2 - n % 2  # T depends on b only through b mod gcd(2, n)
    weighted = 0
    for e in (e for e in range(1, n + 1) if n % e == 0):
        weight = e * math.prod(1 - q for q in primes if (n // e) % q == 0)
        fixed = sum(
            _twisted_fixed(n, b, c, e, u) for b in range(g) for c in (0, 1) for u in (0, 1)
        )
        weighted += weight * (n // g) * fixed
    not_covering, rem = divmod(weighted, n)
    if rem:
        raise RuntimeError("internal error: weighted symmetry count not divisible by n")
    by_class = {(b, p): _twisted_fixed(n, b, 1 - p, n, 0) for b in range(g) for p in (0, 1)}
    misses = {(b, p): by_class[b % g, p] for b in range(n) for p in (0, 1)}
    return CoverReport(n, 2**n - not_covering, coverage_bound(n), misses)


def miss_count(n: int, b: int, parity: int) -> int:
    """Number of parity graphs whose sumset misses (b, parity), by the closed form."""
    n = _strict_int("n", n, 2, MAX_COUNT_N)
    b, parity = _strict_int("b", b, 0, n - 1), _strict_int("parity", parity, 0, 1)
    return _twisted_fixed(n, b, 1 - parity, n, 0)


def find_group_mstd(n: int, strategy: str = "first", seed: int | None = None) -> GroupSubset:
    """A parity graph whose sumset covers Z/n x Z/2, as a group subset.

    Such a subset has |A+A| = 2n and |A-A| <= 2n-1, so it is MSTD in the
    group; both facts are re-verified by the group fold (module docstring)
    before returning.  Strategy "first" scans masks in increasing order
    (deterministic) and takes no seed; "random" needs one.  Raises
    RuntimeError when no witness is found within the budget (for small n
    none exists at all), and ValueError for n outside [2, MAX_COUNT_N] or
    a seed wrongly given or missing, before scanning anything.

    For n >= 7 "first" returns E1 = {0, 1, 3} (mask 0b1011).  Masks 0..10
    are subsets of {0, 1, 2, 3} fixed by some reflection i -> b - i, so
    each misses some (b, 1).  The cyclic gaps (1, 2, n - 3) of {0, 1, 3}
    equal no rotation of their reversal once n >= 6, so no reflection
    fixes it, and E1 equals the complement of a reflection only when
    |E1| = n/2, that is n = 6.
    """
    n = _strict_int("n", n, 2, MAX_COUNT_N)
    seed = None if seed is None else _strict_int("seed", seed)
    if strategy == "first":
        if seed is not None:
            raise ValueError("strategy 'first' does not take parameter(s): seed")
        candidates = range(1 << n)
    elif strategy == "random":
        if seed is None:
            raise ValueError("strategy 'random' needs a seed")
        rng = random.Random(seed)
        candidates = (rng.getrandbits(n) for _ in range(_RANDOM_TRIALS))
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    mask = next((m for m in candidates if _mask_covers(m, n)), None)
    if mask is None:
        raise RuntimeError(f"no covering parity graph found for n={n}")
    subset = ParityGraph.from_mask(n, mask).to_subset()
    sums, diffs = _group_cards(subset, (2, 0), (1, 1))
    if sums != 2 * n:
        raise RuntimeError("internal error: witness sumset does not cover the group")
    if diffs > 2 * n - 1:
        raise RuntimeError("internal error: witness difference set too large")
    return subset
