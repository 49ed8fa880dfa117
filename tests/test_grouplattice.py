import itertools
import json
import random
import re
import time
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mstdkit import (
    EmbedError,
    GroupSpec,
    GroupSubset,
    LatticeSet,
    embed_report,
    embedding_consistency,
    find_group_mstd,
    find_thickness,
    group_sum_diff,
    lattice_sum_diff,
    lattice_sum_diff_card,
    linearize,
    minkowski_sum,
    reduce_to_cell,
    sublattice_box,
    sum_diff,
    thicken,
    thickening_bounds,
    to_lattice,
)
from mstdkit import ParityGraph, grouplattice, mstd_delta, setops
from mstdkit.grouplattice import MAX_LATTICE_POINTS, _box_cards, _box_image, _thickness_scan
from oracles import brute_group_fold, brute_lattice_fold, brute_sum_diff, pair_delta


def random_subset(rng, max_dim=3, max_mod=6, max_size=5):
    d = rng.randint(1, max_dim)
    moduli = tuple(rng.randint(2, max_mod) for _ in range(d))
    pool = list(itertools.product(*(range(m) for m in moduli)))
    size = rng.randint(1, min(max_size, len(pool)))
    return GroupSubset(GroupSpec(moduli), frozenset(rng.sample(pool, size)))


class TestGroupTypes:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GroupSpec(())
        with pytest.raises(ValueError):
            GroupSpec((1, 3))
        assert GroupSpec((5, 2)).order == 10

    def test_subset_requires_reduced(self):
        with pytest.raises(ValueError):
            GroupSubset(GroupSpec((5, 2)), frozenset({(5, 0)}))
        with pytest.raises(ValueError):
            GroupSubset(GroupSpec((5, 2)), frozenset({(0, -1)}))
        with pytest.raises(ValueError):
            GroupSubset(GroupSpec((5, 2)), frozenset({(0,)}))

    def test_subset_must_be_nonempty(self):
        with pytest.raises(ValueError, match="^subset must be nonempty$"):
            GroupSubset(GroupSpec((5,)), frozenset())
        with pytest.raises(ValueError, match="^subset must be nonempty$"):
            GroupSubset.from_json('{"moduli": [5], "elements": []}')

    def test_json_round_trip(self):
        a = GroupSubset(GroupSpec((5, 2)), frozenset({(0, 0), (1, 1)}))
        assert GroupSubset.from_json(a.to_json()) == a

    def test_dict_round_trip(self):
        a = GroupSubset(GroupSpec((7, 3, 2)), frozenset({(6, 0, 1), (0, 2, 0), (3, 1, 1)}))
        assert a.to_dict() == {"moduli": [7, 3, 2], "elements": [[0, 2, 0], [3, 1, 1], [6, 0, 1]]}
        assert GroupSubset.from_json(json.dumps(a.to_dict())) == a

    def test_json_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GroupSubset.from_json('{"moduli": [5, 2], "elements": [[0,0],[0,0]]}')

    def test_json_rejects_malformed_elements(self):
        with pytest.raises(ValueError):
            GroupSubset.from_json('{"moduli": [5, 2], "elements": [3]}')
        with pytest.raises(ValueError):
            GroupSubset.from_json('{"moduli": [5, 2], "elements": [["a", 0]]}')

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"moduli": [7.9, 2], "elements": [[1, 0]]}', "modulus must be an integer, got 7.9"),
            ('{"moduli": [true, 2], "elements": [[0, 0]]}', "modulus must be an integer, got true"),
            ('{"moduli": [7, 2], "elements": [[true, 0]]}', "residue must be an integer, got true"),
            ('{"moduli": [7, 2], "elements": [[2, 1.0]]}', "residue must be an integer, got 1.0"),
            ('{"moduli": 7, "elements": [[2]]}', "must be lists"),
            ('{"moduli": [7], "elements": [[2], 3]}', "lists of integers"),
        ],
    )
    def test_json_rejects_non_strict_integers(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GroupSubset.from_json(text)

    def test_lattice_set_validation(self):
        with pytest.raises(ValueError):
            LatticeSet(2, frozenset({(1,)}))
        with pytest.raises(ValueError):
            LatticeSet(0, frozenset())

    @pytest.mark.parametrize("bad, shown", [(7.9, "7.9"), (True, "true"), ("7", '"7"')])
    def test_spec_rejects_non_integers(self, bad, shown):
        message = f"modulus must be an integer, got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            GroupSpec((bad, 2))
        assert GroupSpec((np.int64(7), 2)).moduli == (7, 2)

    @pytest.mark.parametrize("bad, shown", [(1.7, "1.7"), (True, "true"), (None, "null")])
    def test_subset_rejects_non_integers(self, bad, shown):
        spec = GroupSpec((5, 2))
        message = f"residue must be an integer, got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            GroupSubset(spec, frozenset({(1, bad)}))
        assert GroupSubset(spec, frozenset({(np.int32(1), 1)})).elements == {(1, 1)}

    @pytest.mark.parametrize("bad, shown", [(0.5, "0.5"), (False, "false"), ("0", '"0"')])
    def test_lattice_set_rejects_non_integers(self, bad, shown):
        message = f"coordinate must be an integer, got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            LatticeSet(2, frozenset({(3, bad)}))
        with pytest.raises(ValueError, match="dimension must be an integer"):
            LatticeSet(2.0, frozenset({(3, 0)}))
        assert LatticeSet(2, frozenset({(3, np.int64(-1))})).points == {(3, -1)}

    def test_lattice_set_stores_numpy_dim_as_int(self):
        s = LatticeSet(np.int64(1), [(1,)])
        assert type(s.dim) is int
        assert s == LatticeSet(1, [(1,)])


class TestGroupFold:
    def test_identity_fold(self):
        a = GroupSubset(GroupSpec((5, 2)), frozenset({(0, 0), (1, 1)}))
        assert group_sum_diff(a, 1, 0) == a

    def test_identity_fold_needs_no_span_check(self):
        # as sum_diff and lattice_sum_diff return the set for (1, 0) at any spread
        a = GroupSubset(GroupSpec((2**40,)), [(0,), (2**39,)])
        assert group_sum_diff(a, 1, 0) is a
        with pytest.raises(ValueError, match="dense-kernel limit"):
            group_sum_diff(a, 1, 1)
        assert sum_diff(setops.IntSet([0, 2**39]), 1, 0) == setops.IntSet([0, 2**39])
        s = LatticeSet(1, [(0,), (2**39,)])
        assert lattice_sum_diff(s, 1, 0) is s

    def test_difference_by_hand(self):
        a = GroupSubset(GroupSpec((5, 2)), frozenset({(0, 0), (1, 1)}))
        got = group_sum_diff(a, 1, 1)
        assert got.elements == {(0, 0), (1, 1), (4, 1)}

    def test_matches_brute(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_subset(rng)
            h, k = rng.randint(0, 2), rng.randint(0, 2)
            if h + k == 0:
                continue
            want = brute_group_fold(a.elements, a.spec.moduli, h, k)
            assert group_sum_diff(a, h, k).elements == want

    def test_large_subsets_match_brute(self):
        # |A| >= 32 takes _shift_or's run path, and both axes are reduced
        rng = random.Random(20)
        for n in (64, 257):
            for _ in range(2):
                a = ParityGraph.from_mask(n, rng.getrandbits(n)).to_subset()
                for h, k in ((2, 0), (1, 1)):
                    want = brute_group_fold(a.elements, a.spec.moduli, h, k)
                    assert group_sum_diff(a, h, k).elements == want

    @settings(deadline=None)
    @given(st.data())
    def test_kernel_matches_oracle(self, data):
        # d = 1..4, moduli 2..9, h and k in 0..3; a flat axis holds one value
        axes = data.draw(st.lists(st.tuples(st.integers(2, 9), st.booleans()), min_size=1,
                                  max_size=4))
        moduli = [m for m, _ in axes]
        coords = [st.just(data.draw(st.integers(0, m - 1))) if flat else st.integers(0, m - 1)
                  for m, flat in axes]
        elements = data.draw(st.frozensets(st.tuples(*coords), min_size=1, max_size=5))
        h, k = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
        a = GroupSubset(GroupSpec(tuple(moduli)), elements)
        want = brute_group_fold(elements, a.spec.moduli, h, k)
        assert group_sum_diff(a, h, k).elements == want
        assert grouplattice._group_cards(a, (h, k)) == [len(want)]

    def test_small_spread_in_a_huge_group(self):
        # the layout is sized by A's spread on each axis, not by the moduli
        spec = GroupSpec((1 << 21, 3, 1 << 21))
        assert spec.order > 1 << 40
        a = GroupSubset(spec, frozenset({(0, 0, 5), (1, 2, 5), (3, 1, 6)}))
        # a set wrapping round the modulus: the field starts after its widest gap
        m = (1 << 26) + 3
        wrap = GroupSubset(GroupSpec((m,)), frozenset({(0,), (m - 1,)}))
        across = GroupSubset(GroupSpec((m, 4)), frozenset({(m - 2, 0), (1, 3), (0, 1)}))
        for b in (a, wrap, across):
            for h, k in ((2, 0), (1, 1), (2, 3)):
                want = brute_group_fold(b.elements, b.spec.moduli, h, k)
                assert group_sum_diff(b, h, k).elements == want

    def test_pairs_share_one_layout(self):
        # every pair with the same h + k folds on one layout, as the callers that
        # compare two pairs do; each count matches the oracle and the unshared fold
        rng = random.Random(23)
        for _ in range(30):
            a = random_subset(rng)
            for total in (1, 2, 3):
                pairs = [(h, total - h) for h in range(total + 1)]
                for (h, k), got in zip(pairs, grouplattice._group_cards(a, *pairs)):
                    assert got == len(group_sum_diff(a, h, k))
                    assert got == len(brute_group_fold(a.elements, a.spec.moduli, h, k))

    def test_one_layout_per_pair_comparison(self, monkeypatch):
        layouts = []
        group_layout = grouplattice._group_layout

        def counted(*args):
            layouts.append(args[1:])
            return group_layout(*args)

        monkeypatch.setattr(grouplattice, "_group_layout", counted)
        a = covering_pair_subset()
        find_thickness(a, (2, 0), (1, 1), 4)
        assert layouts == [(2,)]
        embed_report(a, t_max=4)
        assert layouts == [(2,), (2,)]

    def test_layout_over_span_refused_before_any_fold(self, monkeypatch):
        def no_fold(*args):
            raise AssertionError("folded past the span check")

        # _fold_sum_diff folds with setops' _shift_or, the reduction with _fold_runs
        monkeypatch.setattr(setops, "_shift_or", no_fold)
        monkeypatch.setattr(grouplattice, "_fold_runs", no_fold)
        # widest cyclic gaps about m/3, so spreads about 2m/3 on both axes:
        # about (4m/3)^2 = 2^41 bits for h + k = 2
        m = 1 << 20
        thirds = {(0, 0), (m // 3, m // 3), (2 * m // 3, 2 * m // 3)}
        a = GroupSubset(GroupSpec((m, m)), frozenset(thirds))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="dense-kernel limit"):
            group_sum_diff(a, 1, 1)
        with pytest.raises(ValueError, match="dense-kernel limit"):
            grouplattice._group_cards(a, (1, 1))
        with pytest.raises(ValueError, match="dense-kernel limit"):
            find_thickness(a, (2, 0), (1, 1), 4)
        assert time.perf_counter() - start < 0.5

    def test_one_point_folds_at_any_count(self, monkeypatch):
        real = setops._shift_or
        calls = []

        def limited(*args):
            calls.append(args)
            assert len(calls) <= 40, "a fold per count"
            return real(*args)

        monkeypatch.setattr(setops, "_shift_or", limited)
        a = GroupSubset(GroupSpec((5, 3)), frozenset({(1, 2)}))
        # (10^18 - 1) (1, 2) mod (5, 3)
        assert group_sum_diff(a, 10**18, 1).elements == {(4, 0)}
        assert grouplattice._group_cards(a, (10**18, 1), (1, 10**18)) == [1, 1]
        s = LatticeSet(2, frozenset({(0, 0)}))
        assert lattice_sum_diff(s, 10**18, 10**18) == s
        assert lattice_sum_diff_card(to_lattice(a), 10**18, 0) == 1

    def test_preconditions(self):
        a = GroupSubset(GroupSpec((3,)), frozenset({(0,)}))
        with pytest.raises(ValueError):
            group_sum_diff(a, 0, 0)
        with pytest.raises(ValueError):
            group_sum_diff(GroupSubset(GroupSpec((3,)), frozenset()), 1, 0)


_G7 = find_group_mstd(7)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: group_sum_diff(_G7, 1.0, 1), "h must be an integer, got 1.0"),
     (lambda: group_sum_diff(_G7, True, True), "h must be an integer, got true"),
     (lambda: group_sum_diff(_G7, 1, False), "k must be an integer, got false"),
     (lambda: thicken(_G7, 2.0), "t must be an integer, got 2.0"),
     (lambda: thicken(_G7, True), "t must be an integer, got true"),
     (lambda: sublattice_box(_G7.spec, 0, 1.5), "hi must be an integer, got 1.5"),
     (lambda: sublattice_box(_G7.spec, False, 2), "lo must be an integer, got false"),
     (lambda: embed_report(_G7, 2.5), "t_max must be an integer, got 2.5"),
     (lambda: embed_report(_G7, True), "t_max must be an integer, got true"),
     (lambda: linearize(to_lattice(_G7), 2.0), "cap_l must be an integer, got 2.0"),
     (lambda: linearize(to_lattice(_G7), True), "cap_l must be an integer, got true"),
     (lambda: thickening_bounds(_G7, 1, 1, 2.0), "t must be an integer, got 2.0"),
     (lambda: thickening_bounds(_G7, 1.0, 1, 2), "h must be an integer, got 1.0"),
     (lambda: thickening_bounds(_G7, 1, True, 2), "k must be an integer, got true"),
     (lambda: find_thickness(_G7, (2, 0), (1, 1), 2.5), "t_max must be an integer, got 2.5"),
     # explicit ids keep the generated ids above free of duplicate suffixes
     pytest.param(lambda: lattice_sum_diff(to_lattice(_G7), 2.0, 0),
                  "h must be an integer, got 2.0", id="lattice_sum_diff-h-2.0"),
     pytest.param(lambda: lattice_sum_diff(to_lattice(_G7), 1, True),
                  "k must be an integer, got true", id="lattice_sum_diff-k-true"),
     pytest.param(lambda: lattice_sum_diff_card(to_lattice(_G7), True, 1),
                  "h must be an integer, got true", id="lattice_sum_diff_card-h-true"),
     pytest.param(lambda: lattice_sum_diff_card(to_lattice(_G7), 1, 1.0),
                  "k must be an integer, got 1.0", id="lattice_sum_diff_card-k-1.0"),
     pytest.param(lambda: embedding_consistency(_G7, "1", 0),
                  'h must be an integer, got "1"', id="embedding_consistency-h-str"),
     pytest.param(lambda: embedding_consistency(_G7, 1, False),
                  "k must be an integer, got false", id="embedding_consistency-k-false")],
)
def test_fold_counts_must_be_integers(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_fold_counts_accept_numpy_integers():
    assert group_sum_diff(_G7, np.int64(2), np.int32(0)) == group_sum_diff(_G7, 2, 0)
    assert thicken(_G7, np.int64(2)) == thicken(_G7, 2)
    assert sublattice_box(_G7.spec, np.int8(-1), np.int64(2)) == sublattice_box(_G7.spec, -1, 2)
    assert linearize(to_lattice(_G7), np.int64(3)) == linearize(to_lattice(_G7), 3)
    assert thickening_bounds(_G7, np.int64(2), np.int64(0), np.int64(3)) == thickening_bounds(
        _G7, 2, 0, 3
    )
    assert embed_report(_G7, np.int64(32)) == embed_report(_G7, 32)
    s = to_lattice(_G7)
    assert lattice_sum_diff(s, np.int64(2), np.int8(0)) == lattice_sum_diff(s, 2, 0)
    assert lattice_sum_diff_card(s, np.int32(1), np.int64(1)) == lattice_sum_diff_card(s, 1, 1)
    assert embedding_consistency(_G7, np.int64(2), np.int64(1)) == embedding_consistency(
        _G7, 2, 1
    )


class TestEmbeddings:
    def test_to_lattice_is_injective_identity_on_residues(self):
        a = GroupSubset(GroupSpec((3, 2)), frozenset({(2, 1)}))
        assert to_lattice(a).points == {(2, 1)}
        rng = random.Random(6)
        for _ in range(20):
            sub = random_subset(rng)
            assert len(to_lattice(sub)) == len(sub)

    def test_reduce_examples(self):
        spec = GroupSpec((4, 3))
        s = LatticeSet(2, frozenset({(5, -1)}))
        assert reduce_to_cell(s, spec).points == {(1, 2)}

    def test_reduce_inverts_embedding(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_subset(rng)
            assert reduce_to_cell(to_lattice(a), a.spec).points == a.elements

    def test_reduce_keeps_cell_points(self):
        spec = GroupSpec((4, 3))
        pts = frozenset({(0, 0), (3, 2)})
        assert reduce_to_cell(LatticeSet(2, pts), spec).points == pts

    def test_dimension_mismatch(self):
        s = LatticeSet(1, frozenset({(0,)}))
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            reduce_to_cell(s, GroupSpec((4, 3)))
        with pytest.raises(ValueError, match="^dimension mismatch$"):
            minkowski_sum(s, LatticeSet(2, frozenset({(0, 0)})))


class TestBoxes:
    def test_empty_box(self):
        assert len(sublattice_box(GroupSpec((3, 2)), 1, 1)) == 0

    def test_enumerated_box(self):
        box = sublattice_box(GroupSpec((3, 2)), 0, 2)
        assert box.points == {(0, 0), (0, 2), (3, 0), (3, 2)}

    def test_size_budget_checked_before_building(self):
        # 2^40 points: building them would exhaust memory long before finishing
        with pytest.raises(ValueError, match="budget"):
            sublattice_box(GroupSpec((2,) * 40), 0, 2)
        with pytest.raises(ValueError, match="budget"):
            sublattice_box(GroupSpec((2,)), 0, MAX_LATTICE_POINTS + 1)

    def test_sum_budget_checked_before_building(self, monkeypatch):
        monkeypatch.setattr(grouplattice, "MAX_LATTICE_POINTS", 12)
        spec = GroupSpec((3,))
        a, b = sublattice_box(spec, 0, 3), sublattice_box(spec, 0, 4)
        assert len(minkowski_sum(a, b)) == 6  # 12 sums, at the budget
        monkeypatch.setattr(grouplattice, "MAX_LATTICE_POINTS", 11)
        with pytest.raises(ValueError, match="12 lattice points exceed the budget of 11"):
            minkowski_sum(a, b)
        # A - A = {0, 1, 2} and box(-1, 1) make 6 sums; each box alone fits
        pair = GroupSubset(spec, frozenset({(0,), (1,)}))
        monkeypatch.setattr(grouplattice, "MAX_LATTICE_POINTS", 6)
        assert embedding_consistency(pair, 1, 1).all_hold
        monkeypatch.setattr(grouplattice, "MAX_LATTICE_POINTS", 5)
        with pytest.raises(ValueError, match="6 lattice points exceed"):
            embedding_consistency(pair, 1, 1)

    def test_cardinality_law(self):
        for d in (1, 2, 3):
            spec = GroupSpec((3,) * d)
            for s, t in ((0, 2), (-1, 3), (2, 2)):
                assert len(sublattice_box(spec, s, t)) == (t - s) ** d

    def test_sum_law(self):
        spec = GroupSpec((3, 2))
        got = minkowski_sum(sublattice_box(spec, 0, 2), sublattice_box(spec, 1, 3))
        assert got.points == sublattice_box(spec, 1, 4).points

    def test_sum_and_diff_laws_enumerated(self):
        for d in (1, 2, 3):
            spec = GroupSpec(tuple([2, 3, 4][:d]))
            for s1, w1, s2, w2 in itertools.product((-2, 0, 1), (1, 2, 3, 4), (-1, 0), (1, 2, 4)):
                b1 = sublattice_box(spec, s1, s1 + w1)
                b2 = sublattice_box(spec, s2, s2 + w2)
                want_sum = sublattice_box(spec, s1 + s2, s1 + w1 + s2 + w2 - 1)
                want_diff = sublattice_box(spec, s1 - (s2 + w2) + 1, s1 + w1 - s2)
                assert minkowski_sum(b1, b2).points == want_sum.points
                diff = {tuple(x - y for x, y in zip(p, q)) for p in b1.points for q in b2.points}
                assert diff == want_diff.points

    def test_fold_law(self):
        spec = GroupSpec((3, 2))
        for t in range(1, 5):
            box = sublattice_box(spec, 0, t)
            for h in range(1, 4):
                for k in range(0, 3):
                    got = lattice_sum_diff(box, h, k)
                    want = sublattice_box(spec, -k * t + k, h * t - h + 1)
                    assert got.points == want.points


class TestLatticeFold:
    def test_identity(self):
        s = LatticeSet(2, frozenset({(1, 2), (0, 0)}))
        assert lattice_sum_diff(s, 1, 0).points == s.points

    def test_one_dim_matches_intset_ops(self):
        rng = random.Random(8)
        for _ in range(30):
            elems = sorted({rng.randint(-10, 10) for _ in range(rng.randint(1, 6))})
            s = LatticeSet(1, frozenset((e,) for e in elems))
            h, k = rng.randint(0, 2), rng.randint(1, 2)
            got = {p[0] for p in lattice_sum_diff(s, h, k).points}
            assert got == brute_sum_diff(elems, h, k)

    def test_far_from_origin(self):
        # untranslated, these coordinates times radix^2 leave the 64-bit range
        far = 1 << 40
        pts = frozenset({(far, far, far), (far, far, far + 1)})
        s = LatticeSet(3, pts)
        for h, k in ((2, 0), (1, 1)):
            want = brute_lattice_fold(pts, h, k)
            assert lattice_sum_diff(s, h, k).points == want
            assert lattice_sum_diff_card(s, h, k) == len(want)

    def test_card_decodes_nothing(self, monkeypatch):
        def no_decode(*args):
            raise AssertionError("decoded a fold")

        monkeypatch.setattr(setops, "_bit_positions", no_decode)
        monkeypatch.setattr(grouplattice, "_bit_positions", no_decode)
        rng = random.Random(60)
        pts = frozenset((rng.randrange(60), rng.randrange(60)) for _ in range(300))
        s = LatticeSet(2, pts)
        cards = {hk: lattice_sum_diff_card(s, *hk) for hk in ((2, 2), (1, 1), (2, 0), (1, 0))}
        monkeypatch.undo()
        for (h, k), card in cards.items():
            assert card == len(lattice_sum_diff(s, h, k).points)
        assert cards[(1, 0)] == len(pts)

    def test_matches_brute(self):
        rng = random.Random(9)
        for _ in range(40):
            d = rng.randint(1, 3)
            pts = frozenset(
                tuple(rng.randint(-6, 6) for _ in range(d))
                for _ in range(rng.randint(1, 5))
            )
            s = LatticeSet(d, pts)
            total = rng.randint(1, 4)
            h = rng.randint(0, total)
            k = total - h
            want = brute_lattice_fold(pts, h, k)
            assert lattice_sum_diff(s, h, k).points == want
            assert lattice_sum_diff_card(s, h, k) == len(want)

    def test_fields_sized_per_axis(self):
        # psi's radix 2(h+k) max|c| + 1 would span 134225920 bits at h + k = 2;
        # the fields (h+k) s_i + 1 span 8193^2 - 1
        pts = frozenset({(0, 0), (4096, 0), (0, 4096)})
        s = LatticeSet(2, pts)
        for h, k in ((2, 0), (1, 1)):
            want = brute_lattice_fold(pts, h, k)
            assert lattice_sum_diff(s, h, k).points == want
            assert lattice_sum_diff_card(s, h, k) == len(want)

    def test_folds_do_not_linearize(self, monkeypatch):
        def no_psi(*args):
            raise AssertionError("folded on psi")

        monkeypatch.setattr(grouplattice, "linearize", no_psi)
        monkeypatch.setattr(grouplattice, "_psi", no_psi)
        rng = random.Random(61)
        for _ in range(20):
            d = rng.randint(1, 3)
            pts = frozenset(
                tuple(rng.randint(-6, 6) for _ in range(d))
                for _ in range(rng.randint(1, 5))
            )
            s = LatticeSet(d, pts)
            for h, k in ((1, 0), (2, 0), (1, 1), (0, 2), (2, 1)):
                want = brute_lattice_fold(pts, h, k)
                assert lattice_sum_diff(s, h, k).points == want
                assert lattice_sum_diff_card(s, h, k) == len(want)

    def test_preconditions(self):
        s = LatticeSet(1, frozenset({(0,)}))
        with pytest.raises(ValueError):
            lattice_sum_diff(s, 0, 0)
        with pytest.raises(ValueError):
            lattice_sum_diff(LatticeSet(1, frozenset()), 1, 0)


class TestThicken:
    def test_thickness_one_is_embedding(self):
        rng = random.Random(10)
        for _ in range(10):
            a = random_subset(rng)
            assert thicken(a, 1).points == to_lattice(a).points

    def test_cardinality_product(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_subset(rng)
            t = rng.randint(1, 4)
            assert len(thicken(a, t)) == len(a) * t ** a.spec.dim

    def test_singleton_matches_box(self):
        spec = GroupSpec((3, 2))
        a = GroupSubset(spec, frozenset({(0, 0)}))
        assert thicken(a, 2).points == sublattice_box(spec, 0, 2).points

    def test_size_budget_checked_before_building(self):
        # the covering subset times {0} in (Z/2)^22: thickness 2 would build
        # 7 * 2^24 points, about 117 million tuples
        a = GroupSubset(
            GroupSpec((7, 2) + (2,) * 22),
            frozenset(e + (0,) * 22 for e in covering_pair_subset().elements),
        )
        assert len(thicken(a, 1)) == 7
        with pytest.raises(ValueError, match="budget"):
            thicken(a, 2)


class TestConsistency:
    def test_singleton_all_hold(self):
        a = GroupSubset(GroupSpec((4, 3)), frozenset({(1, 2)}))
        for h in (1, 2):
            for k in (0, 1):
                assert embedding_consistency(a, h, k).all_hold

    def test_pure_embedding_case(self):
        rng = random.Random(12)
        for _ in range(10):
            a = random_subset(rng)
            c = embedding_consistency(a, 1, 0)
            assert c.all_hold

    def test_random_instances(self):
        rng = random.Random(13)
        for _ in range(60):
            a = random_subset(rng)
            total = rng.randint(1, 4)
            h = rng.randint(1, total)
            k = total - h
            assert embedding_consistency(a, h, k).all_hold


class TestThickeningBounds:
    def test_trivial_collapse(self):
        a = GroupSubset(GroupSpec((5,)), frozenset({(2,)}))
        b = thickening_bounds(a, 1, 0, 1)
        assert b.upper_ok and b.lower_ok

    def test_singleton_difference_count(self):
        for d in (1, 2, 3):
            spec = GroupSpec((3,) * d)
            a = GroupSubset(spec, frozenset({tuple([0] * d)}))
            bt = thicken(a, 2)
            assert lattice_sum_diff_card(bt, 1, 1) == 3**d

    def test_random_instances(self):
        rng = random.Random(14)
        for _ in range(60):
            a = random_subset(rng)
            total = rng.randint(1, 4)
            h = rng.randint(1, total)
            k = total - h
            t = rng.randint(1, 4)
            b = thickening_bounds(a, h, k, t)
            assert b.upper_ok and b.lower_ok


class TestLinearize:
    def test_one_dim_identity(self):
        s = LatticeSet(1, frozenset({(-3,), (5,)}))
        lin = linearize(s, 2)
        assert set(lin.image) == {-3, 5}

    def test_kernel_triviality_small_norms(self):
        # no nonzero point with coordinates below the radix maps to zero
        radix = 5
        for p in itertools.product(range(-radix + 1, radix), repeat=2):
            val = p[0] + p[1] * radix
            if val == 0:
                assert p == (0, 0)

    def test_cardinality_preservation(self):
        rng = random.Random(15)
        for _ in range(60):
            d = rng.randint(1, 3)
            pts = frozenset(
                tuple(rng.randint(-8, 8) for _ in range(d))
                for _ in range(rng.randint(1, 6))
            )
            s = LatticeSet(d, pts)
            lin = linearize(s, 2)
            assert len(lin.image) == len(pts)
            for h, k in ((2, 0), (1, 1)):
                want = len(brute_lattice_fold(pts, h, k))
                assert len(sum_diff(lin.image, h, k)) == want
                assert lattice_sum_diff_card(s, h, k) == want

    def test_minimal_radix(self):
        s = LatticeSet(2, frozenset({(3, -8)}))
        assert linearize(s, 2).radix == 2 * 2 * 8 + 1

    def test_overflow(self):
        s = LatticeSet(3, frozenset({(1 << 40, 1 << 40, 1 << 40)}))
        with pytest.raises(OverflowError):
            linearize(s, 2)

    def test_empty_lattice_set_refused(self):
        empty = LatticeSet(2, frozenset())
        for call in (
            lambda: linearize(empty, 2),
            lambda: lattice_sum_diff(empty, 2, 0),
            lambda: lattice_sum_diff_card(empty, 1, 1),
        ):
            with pytest.raises(ValueError, match="^lattice set must be nonempty$"):
                call()


def covering_pair_subset():
    """A 7-element covering parity graph in Z/7 x Z/2 (group MSTD witness)."""
    eps = (1, 1, 0, 1, 0, 0, 0)
    return GroupSubset(
        GroupSpec((7, 2)), frozenset((i, e) for i, e in enumerate(eps))
    )


class TestThickenedFold:
    PAIRS = [(h, k) for h in range(4) for k in range(4) if 1 <= h + k <= 3]

    @staticmethod
    def odd_parity_subsets():
        # every element has last coordinate 1, so the minimum corner is nonzero
        yield GroupSubset(GroupSpec((5, 2)), frozenset({(0, 1), (2, 1), (3, 1)}))
        yield GroupSubset(GroupSpec((3, 4, 2)), frozenset({(1, 2, 1), (2, 3, 1)}))
        yield GroupSubset(GroupSpec((4,)), frozenset({(1,), (3,)}))

    def test_matches_point_fold(self):
        rng = random.Random(16)
        subsets = [random_subset(rng, max_mod=5, max_size=2) for _ in range(8)]
        for a in subsets + list(self.odd_parity_subsets()):
            for t in range(1, 5):
                points = thicken(a, t).points
                for h, k in self.PAIRS:
                    (got,) = _box_cards(a, t, (h, k))
                    assert got == len(brute_lattice_fold(points, h, k))

    def test_is_linearized_thickening(self):
        rng = random.Random(17)
        subsets = [random_subset(rng, max_mod=5) for _ in range(20)]
        for a in subsets + list(self.odd_parity_subsets()):
            for t in range(1, 5):
                assert _box_image(a, t) == linearize(thicken(a, t), 2)

    def test_point_budget_checked_first(self):
        a = GroupSubset(GroupSpec((2,) * 21), frozenset({(0,) * 21}))
        with pytest.raises(ValueError, match="budget"):
            _box_cards(a, 2, (1, 0))
        with pytest.raises(ValueError, match="budget"):
            _box_image(a, 2)

    def test_fields_sized_by_spread(self):
        # psi's image of 1B_30 - 1B_30 would span about 6.7e9 bits; the
        # layout's fields 2(s_i + 29 m_i) + 1 span about 6.9e6
        a = GroupSubset(GroupSpec((2, 1000)), frozenset({(0, 0), (1, 0)}))
        want = lattice_sum_diff_card(thicken(a, 30), 1, 1)
        assert _box_cards(a, 30, (1, 1)) == [want] == [7021]
        assert thickening_bounds(a, 1, 1, 30).upper_ok

    def test_span_checked_before_any_fold(self, monkeypatch):
        # at t = 1 the fields 2(m - 1) + 1 span about 2^30 bits
        def no_fold(*args):
            raise AssertionError("folded")

        monkeypatch.setattr(grouplattice, "_fold_sum_diff", no_fold)
        monkeypatch.setattr(grouplattice, "_fold_box", no_fold)
        m = 1 << 14
        a = GroupSubset(GroupSpec((m, m)), frozenset({(0, 0), (m - 1, m - 1)}))
        with pytest.raises(ValueError, match="dense-kernel limit"):
            _box_cards(a, 1, (1, 1))


class TestThicknessSearch:
    def test_same_thickness_as_point_path(self):
        # reference: thicken, linearize with fold budget 2, fold by brute force
        for n in range(7, 13):
            a = find_group_mstd(n, strategy="first")
            for t in itertools.count(1):
                lin = linearize(thicken(a, t), 2)
                sums = len(brute_sum_diff(lin.image, 2, 0))
                diffs = len(brute_sum_diff(lin.image, 1, 1))
                if sums > diffs:
                    break
            assert find_thickness(a, (2, 0), (1, 1), 32) == t
            res = embed_report(a)
            assert (res.t, res.radix, res.image, res.delta) == (
                t, lin.radix, lin.image, sums - diffs
            )

    def test_embed_computes_psi_once(self, monkeypatch):
        # the scan counts on the layout; psi builds only the image at its t
        calls = []
        psi = grouplattice._psi

        def counted(*args):
            calls.append(args)
            return psi(*args)

        monkeypatch.setattr(grouplattice, "_psi", counted)
        for n in range(7, 13):
            calls.clear()
            embed_report(find_group_mstd(n, strategy="first"))
            assert len(calls) == 1, n

    def test_scan_does_not_linearize(self, monkeypatch):
        a = covering_pair_subset()
        want = find_thickness(a, (2, 0), (1, 1), 16), thickening_bounds(a, 2, 1, 3)

        def no_psi(*args):
            raise AssertionError("linearized")

        monkeypatch.setattr(grouplattice, "_psi", no_psi)
        monkeypatch.setattr(grouplattice, "_radix", no_psi)
        assert (find_thickness(a, (2, 0), (1, 1), 16), thickening_bounds(a, 2, 1, 3)) == want

    def test_finds_small_thickness(self):
        a = covering_pair_subset()
        t = find_thickness(a, (2, 0), (1, 1), 16)
        assert 1 <= t <= 16
        bt = thicken(a, t)
        assert lattice_sum_diff_card(bt, 2, 0) > lattice_sum_diff_card(bt, 1, 1)

    def test_unequal_totals_rejected(self):
        a = covering_pair_subset()
        with pytest.raises(ValueError, match="totals"):
            find_thickness(a, (2, 0), (1, 0), 8)

    def test_failing_group_inequality_rejected(self):
        sym = GroupSubset(GroupSpec((5,)), frozenset({(0,), (1,), (4,)}))
        with pytest.raises(ValueError, match="group inequality"):
            find_thickness(sym, (2, 0), (1, 1), 8)


class TestPipeline:
    def test_end_to_end(self):
        a = covering_pair_subset()
        res = embed_report(a)
        assert res.delta >= 1
        d = len(sum_diff(res.image, 1, 1))
        s = len(sum_diff(res.image, 2, 0))
        assert s - d == res.delta

    def test_non_mstd_input_rejected(self):
        sym = GroupSubset(GroupSpec((5,)), frozenset({(0,), (1,), (4,)}))
        with pytest.raises(ValueError, match="not an MSTD subset"):
            embed_report(sym)

    def test_stage_identified_on_budget_exhaustion(self):
        a = covering_pair_subset()  # needs thickness 2
        with pytest.raises(EmbedError, match="thickness search"):
            embed_report(a, t_max=1)

    def test_image_overflow_names_the_stage(self):
        # B_2 of the covering subset times {0}^2 fits the layout (about 6e7
        # bits), but its image under psi passes 2^66
        spec = GroupSpec((7, 2, 2, 1 << 15))
        a = GroupSubset(spec, frozenset(e + (0, 0) for e in covering_pair_subset().elements))
        with pytest.raises(EmbedError, match="^thickness search: value .* signed 64-bit range$"):
            embed_report(a, t_max=8)

    @pytest.mark.parametrize("t_max", [0, -1])
    def test_t_max_below_one_rejected_before_any_fold(self, monkeypatch, t_max):
        def no_fold(*args):
            raise AssertionError("group fold computed")

        monkeypatch.setattr(grouplattice, "group_sum_diff", no_fold)
        monkeypatch.setattr(grouplattice, "_group_layout", no_fold)
        a = covering_pair_subset()
        with pytest.raises(ValueError, match="^t_max must be at least 1$"):
            embed_report(a, t_max=t_max)
        with pytest.raises(ValueError, match="^t_max must be at least 1$"):
            find_thickness(a, (2, 0), (1, 1), t_max)


class TestImageDelta:
    """``embed_report``'s delta: the thickness scan's own counts of X + X and X - X."""

    @staticmethod
    def witnesses():
        for n in range(7, 21):
            yield find_group_mstd(n)
        # d = 2 as above, on other parity graphs
        for n, seed in itertools.product(range(7, 15), (0, 1)):
            yield find_group_mstd(n, strategy="random", seed=seed)

    def test_matches_mstd_delta_and_pairs(self):
        for a in self.witnesses():
            res = embed_report(a)
            image = res.image
            scan = _thickness_scan(a, (2, 0), (1, 1), 32)
            assert scan == (res.t, *astuple(mstd_delta(image))), a.to_json()
            assert res.delta == pair_delta(image), a.to_json()

    def test_folds_the_image_once_after_the_scan(self, monkeypatch):
        # two thickened masks per scanned t, then B_t itself
        calls = []
        fold_box = grouplattice._fold_box

        def counted(*args):
            calls.append(args)
            return fold_box(*args)

        monkeypatch.setattr(grouplattice, "_fold_box", counted)
        for n in (7, 9, 12):
            calls.clear()
            res = embed_report(find_group_mstd(n))
            assert len(calls) == 2 * res.t + 1, n

    def test_embed_never_calls_mstd_delta(self, monkeypatch):
        want = embed_report(find_group_mstd(9))

        def boom(_):
            raise AssertionError("embed_report called mstd_delta")

        monkeypatch.setattr(setops, "mstd_delta", boom)
        monkeypatch.setattr(grouplattice, "mstd_delta", boom, raising=False)
        assert embed_report(find_group_mstd(9)) == want
