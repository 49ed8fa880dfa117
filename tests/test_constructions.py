import numpy as np
import pytest

from mstdkit import (
    ConstructionError,
    Gap,
    GapBase,
    IntSet,
    OneTrackParams,
    TwoTrackParams,
    diffset,
    gap_base_recipe,
    gap_family,
    hegarty_roesler_family,
    interval,
    interval_with_gap,
    mstd_delta,
    one_track_family,
    sumset,
    symmetry_witness,
    two_dim_family,
    two_track_family,
)
from mstdkit.constructions import _gap, _hegarty_roesler, _one_track, _symmetric_mstd
from mstdkit.constructions import _two_dim, _two_track
from oracles import brute_diffset, brute_sumset

A1 = IntSet([0, 2, 3, 4, 7, 11, 12, 14])
A2 = IntSet([0, 2, 3, 4, 7, 9, 13, 14, 16])


def core_of(a, adjoined):
    return IntSet(e for e in a if e != adjoined)


class TestGapType:
    def test_zero_dim_expansion(self):
        assert Gap(5).expand() == IntSet([5])

    def test_two_dim_expansion(self):
        g = Gap(3, ((6, 0, 2), (4, 0, 2)))
        assert g.expand() == IntSet([3, 7, 9, 13])

    def test_expansion_deduplicates(self):
        g = Gap(0, ((1, 0, 3), (2, 0, 2)))  # improper: collisions expected
        assert g.expand() == IntSet([0, 1, 2, 3, 4])

    def test_offsets(self):
        g = Gap(0, ((5, -1, 3),))
        assert g.expand() == IntSet([-5, 0, 5])

    def test_bad_dims_rejected(self):
        with pytest.raises(ConstructionError):
            Gap(0, ((0, 0, 2),))
        with pytest.raises(ConstructionError):
            Gap(0, ((2, 0, 0),))

    def test_expansion_symmetric_about_min_plus_max(self):
        g = Gap(2, ((6, 1, 3), (4, 0, 2)))
        e = g.expand()
        assert symmetry_witness(e) is not None


class TestOneTrack:
    def test_reproduces_a1(self):
        assert one_track_family(OneTrackParams(4, 1, 3)) == A1

    def test_midpoint_rejected(self):
        with pytest.raises(ConstructionError, match="m/2"):
            one_track_family(OneTrackParams(4, 2, 3))

    def test_m5_is_mstd(self):
        a = one_track_family(OneTrackParams(5, 1, 3))
        assert mstd_delta(a).delta >= 1

    def test_k_threshold_low_side(self):
        with pytest.raises(ConstructionError, match="k must be at least 3"):
            one_track_family(OneTrackParams(5, 1, 2))

    def test_k_threshold_high_side(self):
        with pytest.raises(ConstructionError, match="k must be at least 4"):
            one_track_family(OneTrackParams(5, 3, 3))
        one_track_family(OneTrackParams(5, 3, 4))

    def test_m_range(self):
        with pytest.raises(ConstructionError, match="m must be at least 4"):
            one_track_family(OneTrackParams(3, 1, 3))
        with pytest.raises(ConstructionError, match=r"\[1, m-1\]"):
            one_track_family(OneTrackParams(4, 4, 3))

    def test_invariants_on_grid(self):
        for m in range(4, 9):
            for d in range(1, m):
                if 2 * d == m:
                    continue
                k = 3 if 2 * d < m else 4
                a = one_track_family(OneTrackParams(m, d, k))
                core = core_of(a, m)
                w = symmetry_witness(core)
                assert w is not None and w.center == (k + 1) * m - 2 * d
                assert len(sumset(core, core)) == len(diffset(core, core))
                assert diffset(a, a) == diffset(core, core)
                assert 2 * m in sumset(a, a)
                assert 2 * m not in sumset(core, core)


class TestTwoTrack:
    def test_m_third_rejected(self):
        with pytest.raises(ConstructionError, match=r"\(iii\)"):
            two_track_family(TwoTrackParams(6, 2, 3))

    def test_two_thirds_rejected(self):
        with pytest.raises(ConstructionError, match=r"\(iv\)"):
            two_track_family(TwoTrackParams(6, 4, 3))

    def test_small_case(self):
        a = two_track_family(TwoTrackParams(4, 1, 3))
        core = core_of(a, 4)
        assert mstd_delta(a).delta >= 1
        assert symmetry_witness(core).center == 20

    def test_high_side_case(self):
        a = two_track_family(TwoTrackParams(7, 5, 3))
        assert mstd_delta(a).delta >= 1

    def test_d_range(self):
        with pytest.raises(ConstructionError, match=r"\(ii\)"):
            two_track_family(TwoTrackParams(4, 3, 3))

    def test_invariants_on_grid(self):
        for m in range(4, 9):
            for d in range(1, m - 1):
                if 2 * d == m or (2 * d < m and 3 * d == m) or (2 * d > m and 3 * d == 2 * m):
                    continue
                a = two_track_family(TwoTrackParams(m, d, 3))
                core = core_of(a, m)
                assert symmetry_witness(core).center == 5 * m
                assert diffset(a, a) == diffset(core, core)
                assert 2 * m in sumset(a, a) and 2 * m not in sumset(core, core)


class TestSmallFamilies:
    def test_hegarty_roesler_k3_is_a1(self):
        assert hegarty_roesler_family(3) == A1

    def test_hegarty_roesler_k4(self):
        a = hegarty_roesler_family(4)
        assert a == IntSet([0, 2, 3, 4, 7, 11, 15, 16, 18])
        assert mstd_delta(a).delta >= 1

    def test_hegarty_roesler_k2_rejected(self):
        with pytest.raises(ConstructionError):
            hegarty_roesler_family(2)

    def test_two_dim_k2_is_a2(self):
        assert two_dim_family(2) == A2

    def test_two_dim_k3_structure(self):
        a = two_dim_family(3)
        for e in (3, 7, 11, 9, 13, 17, 18, 20):
            assert e in a
        assert mstd_delta(a).delta >= 1

    def test_two_dim_k1_rejected(self):
        with pytest.raises(ConstructionError):
            two_dim_family(1)

    def test_adjoined_shift_lands_in_core_diffs(self):
        # the families' proof obligation: 4 - core is already in core - core
        for a in (hegarty_roesler_family(5), two_dim_family(4)):
            core = core_of(a, 4)
            dd = diffset(core, core)
            assert all(4 - e in dd for e in core)
            assert diffset(a, a) == dd

    def test_gain_element_eight(self):
        for a in (hegarty_roesler_family(3), two_dim_family(2)):
            core = core_of(a, 4)
            assert 8 in sumset(a, a) and 8 not in sumset(core, core)


def _delta_one_grid():
    """(label, (set, delta, center)) from the family builders, on the grid
    where every family's delta is exactly 1."""
    for k in range(3, 12):
        yield f"hr k={k}", _hegarty_roesler(k)
    for k in range(2, 12):
        yield f"t2 k={k}", _two_dim(k)
    for m in range(4, 12):
        for d in range(1, m):
            if 2 * d == m:
                continue
            for k in range(4, 9):
                yield f"t1 m={m} d={d} k={k}", _one_track(OneTrackParams(m, d, k))
        for d in range(1, m - 1):
            if 2 * d == m or (2 * d < m and 3 * d == m) or (2 * d > m and 3 * d == 2 * m):
                continue
            for k in range(3, 9):
                yield f"t3 m={m} d={d} k={k}", _two_track(TwoTrackParams(m, d, k))


def test_every_family_has_delta_one():
    # each family adjoins one element to a symmetric core, which gains
    # exactly one sum and no difference
    grid = list(_delta_one_grid())
    assert len(grid) == 475
    for label, (a, _, _) in grid:
        assert mstd_delta(a).delta == 1, label
        assert len(brute_sumset(a, a)) - len(brute_diffset(a, a)) == 1, label


RECIPE_PROGRESSIONS = [
    Gap(0),
    Gap(0, ((1, 0, 2),)),
    Gap(0, ((2, 0, 2),)),
    Gap(0, ((1, 0, 3),)),
    Gap(0, ((3, 0, 2),)),
    Gap(0, ((1, 0, 2), (3, 0, 2))),
]


def _recipe_grid(max_m):
    """(label, (set, delta, center)) for every gap and gap2 input the recipe
    takes with m <= max_m and k = 2, 3, and that the family builds."""
    for p in RECIPE_PROGRESSIONS:
        for m in range(4, max_m + 1):
            for r in range(1, m):
                for s in range(r + 1, m):
                    try:
                        base = gap_base_recipe(p, r, s, m)
                    except ConstructionError:
                        continue
                    for k in (2, 3):
                        for variant in ("one_to_k", "zero_to_k"):
                            try:
                                built = _gap(base, k, variant)
                            except ConstructionError:
                                continue
                            yield f"{variant} {p} m={m} r={r} s={s} k={k}", built


def _large_family_grid():
    """(label, (set, delta, center)) for family sets long enough that the
    tail's fold finds runs in the order of the pieces."""
    yield "t1", _one_track(OneTrackParams(40, 3, 40))
    yield "t1 high", _one_track(OneTrackParams(37, 30, 45))
    yield "t3", _two_track(TwoTrackParams(30, 7, 30))
    yield "t3 high", _two_track(TwoTrackParams(31, 20, 33))
    yield "t2", _two_dim(300)
    yield "hr", _hegarty_roesler(300)
    p = Gap(0, ((2, 0, 5), (11, 0, 3)))
    yield "gap", _gap(gap_base_recipe(p, 40, 72, 400), 30, "one_to_k")
    yield "gap2", _gap(gap_base_recipe(Gap(0, ((3, 0, 4),)), 40, 60, 600), 40, "zero_to_k")


@pytest.mark.parametrize(
    "grid, size",
    [(_delta_one_grid, 475), (lambda: _recipe_grid(20), 2490), (_large_family_grid, 8)],
    ids=["delta_one", "recipe", "large"],
)
def test_tail_delta_matches_sorted_path(grid, size):
    # _symmetric_mstd folds A's elements in the order of its pieces;
    # mstd_delta folds them sorted
    checked = 0
    for label, (a, d, _) in grid():
        assert d == mstd_delta(a), label
        checked += 1
    assert checked == size


def test_tail_delta_with_adjoined_anywhere():
    # the adjoined element comes last in the tail's piece order wherever it
    # lies, below, inside or above the core; check its counts, returned or
    # in the refusal, on every position, for small cores and for two with
    # runs long enough to be folded
    cores = [[i for i in range(7) if mask >> i & 1] for mask in range(1, 1 << 7)]
    cores += [list(range(40)) + list(range(45, 100, 5)), list(range(0, 120, 3)) + [121]]
    checked = 0
    for b in cores:
        for center in (b[-1] + 3, 2 * b[-1] + 9):
            for x in range(-4, center + 5):
                want = mstd_delta(IntSet(b + [center - e for e in b] + [x]))
                try:
                    _, got, _ = _symmetric_mstd(b, [], center, x, "test")
                except ConstructionError as e:
                    assert f"not MSTD (delta={want.delta})" in str(e), (b, center, x)
                else:
                    assert got == want, (b, center, x)
                checked += 1
    assert checked == 6444


class TestIntervalWithGap:
    def test_full_case(self):
        facts = interval_with_gap(6, 2, 3)
        assert facts.sum_full and facts.diff_full
        assert facts.sumset == interval(0, 10)
        assert facts.diffset == interval(-5, 5)

    def test_neither_full(self):
        facts = interval_with_gap(8, 2, 5)
        assert not facts.sum_full and not facts.diff_full
        b = [0, 1, 5, 6, 7]
        assert set(facts.sumset) == {x + y for x in b for y in b}
        assert set(facts.diffset) == {x - y for x in b for y in b}

    def test_punctured_interval(self):
        # s = r + 1 gives [0, m-1] minus {r}
        facts = interval_with_gap(9, 1, 2)
        assert facts.sumset == IntSet(e for e in range(0, 17) if e != 1)
        assert not facts.sum_full and facts.diff_full

    def test_punctured_high_end(self):
        m, r = 9, 7
        facts = interval_with_gap(m, r, r + 1)
        assert facts.sumset == IntSet(e for e in range(0, 2 * m - 1) if e != 2 * m - 3)
        assert facts.diff_full

    def test_flags_match_brute_grid(self):
        for m in range(4, 15):
            for r in range(1, m):
                for s in range(r + 1, m):
                    facts = interval_with_gap(m, r, s)
                    b = list(range(r)) + list(range(s, m))
                    assert set(facts.sumset) == {x + y for x in b for y in b}
                    assert set(facts.diffset) == {x - y for x in b for y in b}
                    assert facts.sum_full == (facts.sumset == interval(0, 2 * m - 2))
                    assert facts.diff_full == (facts.diffset == interval(1 - m, m - 1))
                    if s <= 2 * r - 1 and 2 * s <= m + r - 1:
                        assert facts.sum_full
                    if s <= 2 * r - 1 or 2 * s <= m + r - 1:
                        assert facts.diff_full

    def test_preconditions(self):
        with pytest.raises(ConstructionError):
            interval_with_gap(3, 1, 2)
        with pytest.raises(ConstructionError):
            interval_with_gap(6, 2, 2)
        with pytest.raises(ConstructionError):
            interval_with_gap(6, 2, 6)

    @pytest.mark.parametrize(
        "args, message",
        [((6, True, 3), "r must be an integer, got true"),
         ((6.0, 2, 3), "m must be an integer, got 6.0"),
         ((6, 2, 3.5), "s must be an integer, got 3.5")],
    )
    def test_non_integer_arguments_rejected(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            interval_with_gap(*args)

    def test_numpy_integer_arguments_accepted(self):
        facts = interval_with_gap(np.int64(8), np.int32(2), np.uint8(5))
        assert facts == interval_with_gap(8, 2, 5)
        assert all(type(e) is int for e in facts.sumset)
        assert all(type(e) is int for e in facts.diffset)


class TestRecipe:
    def test_point_progression(self):
        base = gap_base_recipe(Gap(0), 2, 3, 6)
        assert base.b == IntSet([0, 1, 3, 4, 5])
        assert base.lstar.expand() == IntSet([2])

    def test_r_too_small(self):
        with pytest.raises(ConstructionError, match=r"max\(P\) \+ 2"):
            gap_base_recipe(Gap(0), 1, 3, 6)

    def test_pair_progression(self):
        base = gap_base_recipe(Gap(0, ((1, 0, 2),)), 3, 5, 10)
        assert base.b == interval(0, 2) | interval(5, 9)
        assert base.lstar.expand() == IntSet([3, 4])

    def test_s_window(self):
        with pytest.raises(ConstructionError, match="2r - 1"):
            gap_base_recipe(Gap(0), 3, 6, 12)

    def test_m_constraint(self):
        with pytest.raises(ConstructionError, match="2s <= m"):
            gap_base_recipe(Gap(0), 2, 3, 4)

    def test_nonzero_min_rejected(self):
        with pytest.raises(ConstructionError, match="minimum 0"):
            gap_base_recipe(Gap(1), 3, 5, 10)


class TestGapFamily:
    def test_recipe_case_one_to_k(self):
        base = gap_base_recipe(Gap(0), 2, 3, 6)
        a = gap_family(base, 2, "one_to_k")
        assert mstd_delta(a).delta >= 1
        core = core_of(a, 6)
        assert symmetry_witness(core).center == (2 + 3) * 6 - 2 - 2

    def test_bad_base_rejected(self):
        # b = [0,3] + [6,8] has full sumset/difference set, but lstar = {5}
        # is not adjacent to the lower interval: min(lstar)-1 = 4 not in b
        bad = GapBase(m=9, b=interval(0, 3) | interval(6, 8), lstar=Gap(5))
        with pytest.raises(ConstructionError, match="just below"):
            gap_family(bad, 2, "one_to_k")

    def test_base_fullness_enforced(self):
        with pytest.raises(ConstructionError, match="full sumset"):
            gap_family(GapBase(m=8, b=IntSet([0, 1, 6, 7]), lstar=Gap(2)), 2)

    def test_zero_variant_extra_condition(self):
        # lstar = {3} in m = 6: 3 + 3 = m, so the zero-based block is rejected
        base = GapBase(m=6, b=IntSet([0, 1, 2, 4, 5]), lstar=Gap(3))
        with pytest.raises(ConstructionError, match="lstar"):
            gap_family(base, 3, "zero_to_k")
        assert mstd_delta(gap_family(base, 3, "one_to_k")).delta >= 1

    def test_zero_variant_builds(self):
        base = gap_base_recipe(Gap(0), 2, 3, 8)
        a = gap_family(base, 2, "zero_to_k")
        assert mstd_delta(a).delta >= 1
        core = core_of(a, 8)
        w = symmetry_witness(core)
        assert w is not None
        block = IntSet(8 - 2 + 8 * j for j in range(0, 3))
        assert w.center == block.min + block.max

    def test_unknown_variant(self):
        base = gap_base_recipe(Gap(0), 2, 3, 6)
        with pytest.raises(ConstructionError, match="variant"):
            gap_family(base, 2, "both")

    def test_k_too_small(self):
        base = gap_base_recipe(Gap(0), 2, 3, 6)
        with pytest.raises(ConstructionError, match="k must be at least 2"):
            gap_family(base, 1)

    def test_two_dim_progression_base(self):
        p = Gap(0, ((1, 0, 2), (3, 0, 2)))  # {0,1,3,4}
        base = gap_base_recipe(p, 12, 17, 23)  # lstar+lstar = [24,32], misses m
        for variant in ("one_to_k", "zero_to_k"):
            a = gap_family(base, 3, variant)
            m = base.m
            core = core_of(a, m)
            assert mstd_delta(a).delta >= 1
            assert diffset(a, a) == diffset(core, core)
            assert 2 * m in sumset(a, a) and 2 * m not in sumset(core, core)

    def test_known_false_corner_detected(self):
        # For the zero-based block with k = 2 the source hypotheses do not
        # force the 2m sum gain once (k-1)*m < min(lstar) + max(lstar); the
        # smallest recipe instance of that corner really is non-MSTD and the
        # constructor's self-verification must refuse it.
        base = gap_base_recipe(Gap(0), 4, 5, 7)
        with pytest.raises(ConstructionError, match="not MSTD"):
            gap_family(base, 2, "zero_to_k")
        # same base and block range is fine at k = 3
        assert mstd_delta(gap_family(base, 3, "zero_to_k")).delta >= 1


class TestSymmetricTail:
    def test_returns_set_delta_and_center(self):
        a, d, center = _symmetric_mstd([0, 2], [3, 7, 11], 14, 4, "test")
        assert (a, d.delta, center) == (A1, 1, 14)

    def test_asymmetric_core_refused(self):
        # core {0, 2, 3, 8, 10}: 3 has no mirror 7
        with pytest.raises(ConstructionError, match="core is not symmetric about 10"):
            _symmetric_mstd([0, 2], [3], 10, 4, "test")

    def test_core_symmetric_about_another_center_refused(self):
        # core {0, 2, 4, 6} is symmetric about 6, not about the stated 4
        with pytest.raises(ConstructionError, match="core is not symmetric about 4"):
            _symmetric_mstd([0], [2, 6], 4, 1, "test")

    def test_middle_not_listed_as_its_mirror_refused(self):
        # core {0, 2, 3, 7, 11, 12, 14} is symmetric about 14 as a set, but
        # the middle [3, 11, 7] is not listed as its own mirror [7, 3, 11]
        with pytest.raises(ConstructionError, match="core is not symmetric about 14"):
            _symmetric_mstd([0, 2], [3, 11, 7], 14, 4, "test")

    def test_non_mstd_result_refused(self):
        # core [0, 3]; adjoining 5 gives 10 sums (9 is missing) and 11 differences
        with pytest.raises(ConstructionError, match=r"not MSTD \(delta=-1\)"):
            _symmetric_mstd([0, 1], [], 3, 5, "test")


def test_gap_base_fullness_counts_match_set_equality():
    # GapBase.validate decides fullness from |B+B| and |B-B| alone
    checked = 0
    for m in range(4, 13):
        for mask in range(1, 1 << m):
            b = IntSet(i for i in range(m) if mask >> i & 1)
            if sumset(b, b) != interval(0, 2 * m - 2):
                want = "full sumset"
            elif diffset(b, b) != interval(1 - m, m - 1):
                want = "full difference set"
            else:
                want = None
            try:
                GapBase(m=m, b=b, lstar=Gap(0)).validate()
                got = None
            except ConstructionError as e:
                got = next((w for w in ("full sumset", "full difference set") if w in str(e)), None)
            assert got == want, (m, b)
            checked += 1
    assert checked == 8167


ZERO_TO_K_CONDITION = "min(lstar) + max(lstar) <= (k-1)*m"


def _zero_to_k_by_hand(base, k):
    """The zero_to_k set built from its definition, with no check."""
    m, ls = base.m, base.lstar.expand()
    block = [m - e + j * m for e in ls for j in range(k + 1)]
    center = min(block) + max(block)
    return IntSet(list(base.b) + block + [center - e for e in base.b] + [m])


def test_zero_to_k_condition_on_recipe_grid():
    # every recipe-accepted zero_to_k input either builds an MSTD set or is
    # refused by a stated condition; the min + max condition refuses only
    # sets that really are not MSTD
    outcomes = {"built": 0, "lstar + lstar": 0, ZERO_TO_K_CONDITION: 0}
    for p in RECIPE_PROGRESSIONS:
        for m in range(4, 21):
            for r in range(1, m):
                for s in range(r + 1, m):
                    try:
                        base = gap_base_recipe(p, r, s, m)
                    except ConstructionError:
                        continue
                    for k in (2, 3):
                        try:
                            gap_family(base, k, "zero_to_k")
                            outcomes["built"] += 1
                        except ConstructionError as e:
                            assert "internal error" not in str(e), (p, m, r, s, k)
                            reason = next(c for c in outcomes if c in str(e))
                            outcomes[reason] += 1
                            if reason == ZERO_TO_K_CONDITION:
                                assert k == 2
                                a = _zero_to_k_by_hand(base, k)
                                assert mstd_delta(a).delta <= 0, (p, m, r, s, k)
    assert all(outcomes.values()), outcomes


def _family_calls():
    """{entry point: (parameter names, make)}: ``make(t)`` calls the entry
    point with each integer parameter given as ``t(name, value)``."""
    return {
        "one_track_family": (("m", "d", "k"), lambda t: one_track_family(
            OneTrackParams(t("m", 4), t("d", 1), t("k", 3)))),
        "two_track_family": (("m", "d", "k"), lambda t: two_track_family(
            TwoTrackParams(t("m", 6), t("d", 1), t("k", 3)))),
        "hegarty_roesler_family": (("k",), lambda t: hegarty_roesler_family(t("k", 5))),
        "two_dim_family": (("k",), lambda t: two_dim_family(t("k", 30))),
        "gap_family": (("base", "dims", "r", "s", "m", "k"), lambda t: gap_family(
            gap_base_recipe(
                Gap(t("base", 0), ((t("dims", 2), t("dims", 0), t("dims", 2)),)),
                t("r", 4), t("s", 7), t("m", 12),
            ),
            t("k", 2),
        )),
    }


@pytest.mark.parametrize("to", [np.int64, np.int32, np.uint16])
def test_family_entry_points_take_numpy_integers(to):
    for label, (_names, make) in _family_calls().items():
        a = make(lambda _name, v: to(v))
        assert a == make(lambda _name, v: v), label
        assert all(type(e) is int for e in a), label
        assert mstd_delta(a).delta >= 1, label


@pytest.mark.parametrize("bad, shown", [(2.0, "2.0"), (True, "true")])
def test_family_entry_points_refuse_floats_and_bools(bad, shown):
    checked = 0
    for names, make in _family_calls().values():
        for name in names:
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {shown}$"):
                make(lambda n, v: bad if n == name else v)
            checked += 1
    assert checked == 14


def test_gap_base_refuses_float_m():
    base = gap_base_recipe(Gap(0), 2, 3, 6)
    with pytest.raises(ValueError, match="^m must be an integer, got 6.5$"):
        GapBase(m=6.5, b=base.b, lstar=base.lstar)
    assert GapBase(m=np.int64(6), b=base.b, lstar=base.lstar) == base
