"""Hypothesis properties of the lattice folds against the brute force in ``oracles``.

The subsets are drawn in the shapes where the layouts branch: modulus 2, a
flat axis, an arc that wraps round m, and an axis whose unpadded field of
(h + k) s + 1 digits is m or m + 1 wide, so a box step of m lands on the
next field or one digit short of it unless the pad widens the field.
"""

import math
from dataclasses import astuple

import pytest
from hypothesis import given, settings, strategies as st

from mstdkit import GroupSpec, GroupSubset, LatticeSet, grouplattice, mstd_delta, setops
from mstdkit import lattice_sum_diff, lattice_sum_diff_card, linearize, thicken
from mstdkit import thickening_bounds, to_lattice
from mstdkit.grouplattice import _box_cards, _box_image, _group_cards
from mstdkit.setops import I64_MAX, I64_MIN
from oracles import brute_group_fold, brute_lattice_fold

SHAPES = ("any", "mod2", "flat", "wrap", "w=m", "w=m+1")


@st.composite
def _axis(draw, total):
    """(m, forced, values) for one axis of a subset folded at h + k = ``total``:
    its modulus, the coordinates every subset with two or more elements
    holds, and those the rest are drawn from."""
    # at h + k = 1 a field of m + 1 digits would need a spread of m
    shape = draw(st.sampled_from(SHAPES if total > 1 else SHAPES[:-1]))
    if shape in ("w=m", "w=m+1"):
        spread = draw(st.integers(2, 4))
        m = total * spread + (shape == "w=m")  # the field (h+k) s + 1 is m or m + 1
        lo = draw(st.integers(0, m - 1 - spread))
        return m, [lo, lo + spread], range(lo, lo + spread + 1)
    m = 2 if shape == "mod2" else draw(st.integers(2, 7))
    if shape == "flat":
        c = draw(st.integers(0, m - 1))
        return m, [c], [c]
    if shape == "wrap":  # an arc from lo through m - 1 round to its end
        lo = draw(st.integers(1, m - 1))
        length = draw(st.integers(m - lo + 1, m))
        arc = [(lo + j) % m for j in range(length)]
        return m, [arc[0], arc[-1]], arc
    return m, [], range(m)


@st.composite
def _subsets(draw, total):
    """A subset of Z/m_1 (x Z/m_2) with 1 to 4 elements, each axis in a drawn shape."""
    axes = draw(st.lists(_axis(total), min_size=1, max_size=2))
    size = draw(st.integers(1, 4))
    cols = []
    for _, forced, values in axes:
        rest = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
        cols.append((forced + rest)[:size])
    return GroupSubset(GroupSpec(tuple(m for m, _, _ in axes)), frozenset(zip(*cols)))


_pairs = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: 1 <= sum(p) <= 3)


@st.composite
def _far_points(draw):
    """1 to 4 lattice points, each coordinate a base of 0 or +-2^62 plus -2..2."""
    bases = draw(st.lists(st.sampled_from((-(1 << 62), 0, 1 << 62)), min_size=1, max_size=2))
    offsets = st.tuples(*(st.integers(-2, 2) for _ in bases))
    points = draw(st.frozensets(offsets, min_size=1, max_size=4))
    return frozenset(tuple(map(int.__add__, bases, p)) for p in points)


@settings(deadline=None)
@given(_far_points(), _pairs)
def test_lattice_folds_match_brute(points, pair):
    # near +-2^62 a fold leaves signed 64 bits exactly when a brute point does;
    # the card still counts it
    s = LatticeSet(len(next(iter(points))), points)
    want = brute_lattice_fold(points, *pair)
    assert lattice_sum_diff_card(s, *pair) == len(want)
    if all(I64_MIN <= c <= I64_MAX for p in want for c in p):
        assert lattice_sum_diff(s, *pair).points == want
    else:
        with pytest.raises(OverflowError):
            lattice_sum_diff(s, *pair)


@settings(deadline=None)
@given(st.data())
def test_box_cards_match_brute(data):
    h, k = data.draw(_pairs)
    a = data.draw(_subsets(h + k))
    t = data.draw(st.integers(1, 3))
    want = brute_lattice_fold(thicken(a, t).points, h, k)
    assert _box_cards(a, t, (h, k)) == [len(want)]


@settings(deadline=None)
@given(_subsets(2), st.integers(1, 3))
def test_box_image_is_linearized_thickening(a, t):
    image = _box_image(a, t).image
    assert image == linearize(thicken(a, t), 2).image
    assert list(astuple(mstd_delta(image))) == _box_cards(a, t, (2, 0), (1, 1))


@settings(deadline=None)
@given(st.data())
def test_thickening_bounds_match_brute(data):
    h, k = data.draw(_pairs.filter(lambda p: p[0] >= 1))
    a = data.draw(_subsets(h + k))
    t = data.draw(st.integers(1, 3))
    group_card = len(brute_group_fold(a.elements, a.spec.moduli, h, k))
    lat_card = len(brute_lattice_fold(thicken(a, t).points, h, k))
    d, base = a.spec.dim, (h + k) * t - 2 * (h + k - 1)
    upper = lat_card <= group_card * ((h + k) * t) ** d
    lower = base < 0 or lat_card >= group_card * base**d
    assert astuple(thickening_bounds(a, h, k, t)) == (upper, lower) == (True, True)


def _spread(coords, m=None):
    """The largest digit on one axis of a layout: max less min, or in Z/m, m
    less the widest cyclic gap between the coordinates."""
    vals = sorted(set(coords))
    if m is None:
        return vals[-1] - vals[0]
    return m - max(b - a for a, b in zip(vals, vals[1:] + [vals[0] + m]))


def _no_fold(*args):
    raise AssertionError("folded past the span check")


@settings(deadline=None)
@given(st.data())
def test_layouts_either_side_of_the_span_limit(data):
    # each count runs with MAX_SPAN_BITS at its layout's bits, prod(w_i) - 1,
    # and one bit below them
    h, k = data.draw(_pairs)
    a = data.draw(_subsets(h + k))
    t = data.draw(st.integers(1, 3))
    cols, moduli, total = list(zip(*a.elements)), a.spec.moduli, h + k

    def bits(widths):
        return math.prod(widths) - 1

    cases = [
        (
            bits(total * _spread(c, m) + 1 for c, m in zip(cols, moduli)),
            lambda: _group_cards(a, (h, k)),
            [len(brute_group_fold(a.elements, moduli, h, k))],
        ),
        (
            bits(total * (_spread(c) + m * (t - 1)) + 1 for c, m in zip(cols, moduli)),
            lambda: _box_cards(a, t, (h, k)),
            [len(brute_lattice_fold(thicken(a, t).points, h, k))],
        ),
    ]
    if (h, k) != (1, 0):  # the lattice folds return S itself at (1, 0)
        cases.append(
            (
                bits(total * _spread(c) + 1 for c in cols),
                lambda: lattice_sum_diff_card(to_lattice(a), h, k),
                len(brute_lattice_fold(a.elements, h, k)),
            )
        )
    for limit, count, want in cases:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(setops, "MAX_SPAN_BITS", limit)
            assert count() == want
            patch.setattr(setops, "MAX_SPAN_BITS", limit - 1)
            patch.setattr(grouplattice, "_fold_sum_diff", _no_fold)
            with pytest.raises(ValueError, match="dense-kernel limit"):
                count()
