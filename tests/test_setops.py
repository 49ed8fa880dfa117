import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mstdkit import (
    IntSet,
    MstdDelta,
    affine,
    diffset,
    h_fold,
    interval,
    mstd_delta,
    normalize,
    sum_diff,
    sumset,
    symmetry_witness,
)
from mstdkit import setops
from mstdkit.setops import I64_MAX, I64_MIN, MAX_SPAN_BITS, _FOLD_MIN, _RUN_MIN
from mstdkit.setops import _bit_positions, _check_i64, _check_span, _fold_runs, _shift_or
from oracles import brute_diffset, brute_sum_diff, brute_sumset

A1 = IntSet([0, 2, 3, 4, 7, 11, 12, 14])
A2 = IntSet([0, 2, 3, 4, 7, 9, 13, 14, 16])

int_sets = st.builds(
    IntSet, st.lists(st.integers(-60, 60), min_size=1, max_size=9)
)

# (start, step, length) of one arithmetic progression
progressions = st.tuples(st.integers(-60, 60), st.integers(1, 7), st.integers(1, 40))


def _union(aps) -> list[int]:
    return [start + i * step for start, step, length in aps for i in range(length)]


# unions of 1-4 possibly overlapping progressions: long enough to reach
# the run folding in _shift_or, which int_sets never does
ap_sets = st.lists(progressions, min_size=1, max_size=4).map(
    lambda aps: IntSet(_union(aps))
)


class TestWorkedExamples:
    def test_a1_sumset(self):
        want = IntSet(e for e in range(0, 29) if e not in (1, 20, 27))
        assert sumset(A1, A1) == want
        assert len(want) == 26

    def test_a1_diffset(self):
        want = IntSet(e for e in range(-14, 15) if abs(e) not in (6, 13))
        assert diffset(A1, A1) == want
        assert len(want) == 25

    def test_a2_sumset(self):
        want = IntSet(e for e in range(0, 33) if e not in (1, 24, 31))
        assert sumset(A2, A2) == want
        assert len(want) == 30

    def test_a2_diffset(self):
        want = IntSet(e for e in range(-16, 17) if abs(e) not in (8, 15))
        assert diffset(A2, A2) == want
        assert len(want) == 29

    def test_a1_delta(self):
        d = mstd_delta(A1)
        assert (d.sum_card, d.diff_card, d.delta) == (26, 25, 1)
        assert d.is_mstd

    def test_a2_delta(self):
        d = mstd_delta(A2)
        assert (d.sum_card, d.diff_card, d.delta) == (30, 29, 1)


class TestSumset:
    def test_singletons(self):
        assert sumset(IntSet([0]), IntSet([0])) == IntSet([0])

    def test_small_by_hand(self):
        assert sumset(IntSet([0, 1, 3]), IntSet([0, 2])) == IntSet([0, 1, 2, 3, 5])

    def test_empty_operand(self):
        assert sumset(IntSet(), A1) == IntSet()
        assert sumset(A1, IntSet()) == IntSet()

    def test_negative_elements(self):
        a = IntSet([-5, -1, 2])
        assert sumset(a, a).elements == tuple(sorted(brute_sumset(a, a)))


class TestDiffset:
    def test_singleton(self):
        assert diffset(IntSet([5]), IntSet([5])) == IntSet([0])

    def test_empty(self):
        assert diffset(IntSet(), IntSet([1])) == IntSet()

    def test_matches_brute(self):
        a = IntSet([0, 1, 4, 9])
        b = IntSet([-2, 3])
        assert set(diffset(a, b)) == brute_diffset(a, b)
        assert set(diffset(b, a)) == brute_diffset(b, a)

    def test_extreme_operands_without_negation(self):
        # -min(I64) is outside the range, but every difference here is inside it
        low = IntSet([-(1 << 63)])
        assert diffset(low, low) == IntSet([0])
        assert diffset(IntSet([-1]), low) == IntSet([(1 << 63) - 1])


class TestMaskCache:
    @pytest.mark.parametrize(
        "op, a, b",
        [
            (sumset, [0, 3, 4], [-2, 5]),
            (diffset, [0, 3, 4, 9], [-2, 5]),  # shifts A's mask
            (diffset, [-2, 5], [0, 3, 4, 9]),  # shifts the mask of -B
        ],
    )
    def test_result_keeps_its_mask(self, op, a, b):
        got = op(IntSet(a), IntSet(b))
        assert got._mask_cache == IntSet(got.elements).mask


class TestFoldCost:
    """The masks ``_shift_or`` is called on: which masks each fold shifts and builds."""

    @pytest.fixture
    def shifted(self, monkeypatch):
        calls = []  # (mask, result) per call

        def record(mask, shifts):
            out = _shift_or(mask, shifts)
            calls.append((mask, out))
            return out

        monkeypatch.setattr(setops, "_shift_or", record)
        return calls

    def test_mstd_delta_shifts_the_cached_mask_twice(self, shifted):
        a = IntSet(A1.elements)
        mask = a.mask
        shifted.clear()
        assert mstd_delta(a) == MstdDelta(26, 25)
        assert [m for m, _ in shifted] == [mask, mask]

    def test_mstd_delta_on_a_cached_mask_builds_no_set(self, monkeypatch):
        a = IntSet(A1.elements)
        a.mask
        made = []  # the elements of each IntSet built, checked or trusted
        init, from_sorted = IntSet.__init__, IntSet._from_sorted.__func__

        def spy_init(self, elements=()):
            made.append(elements)
            init(self, elements)

        def spy_from_sorted(cls, elems, mask=None):
            made.append(elems)
            return from_sorted(cls, elems, mask)

        monkeypatch.setattr(IntSet, "__init__", spy_init)
        monkeypatch.setattr(IntSet, "_from_sorted", classmethod(spy_from_sorted))
        assert mstd_delta(a) == MstdDelta(26, 25)
        assert made == []
        assert len(diffset(a, a)) == 25 and len(made) == 2  # -A and A - A

    def test_difference_with_itself_shifts_the_cached_mask_once(self, shifted):
        a = IntSet(A1.elements)
        mask = a.mask
        shifted.clear()
        assert set(diffset(a, a)) == brute_diffset(a, a)
        assert [m for m, _ in shifted] == [mask]

    def test_larger_subtrahend_builds_only_its_negation(self, shifted):
        a, b = IntSet([0, 3, 4]), IntSet([-2, 5, 6, 11])
        assert set(diffset(a, b)) == brute_diffset(a, b)
        # a mask is built by shifting the mask 1 of {0}; -B's has bit max B - y per y
        assert [out for m, out in shifted if m == 1] == [sum(1 << (b.max - y) for y in b)]


class TestHFold:
    def test_zero_fold_is_origin(self):
        assert h_fold(A1, 0) == IntSet([0])
        assert h_fold(IntSet(), 0) == IntSet([0])

    def test_one_fold_identity(self):
        assert h_fold(A1, 1) == A1

    def test_two_fold(self):
        assert h_fold(IntSet([0, 1]), 2) == IntSet([0, 1, 2])

    def test_three_fold_by_hand(self):
        got = h_fold(IntSet([0, 2, 5]), 3)
        assert got == IntSet([0, 2, 4, 5, 6, 7, 9, 10, 12, 15])
        assert set(got) == brute_sum_diff(IntSet([0, 2, 5]), 3, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            h_fold(A1, -1)


class TestSumDiff:
    def test_two_zero_is_sumset(self):
        assert sum_diff(A1, 2, 0) == sumset(A1, A1)

    def test_one_one_is_diffset(self):
        assert sum_diff(A1, 1, 1) == diffset(A1, A1)
        assert len(sum_diff(A1, 1, 1)) == 25

    def test_two_one_by_hand(self):
        got = sum_diff(IntSet([0, 1, 3]), 2, 1)
        assert got == IntSet(range(-3, 7))

    def test_matches_brute_oracle(self):
        a = IntSet([0, 2, 5, 6])
        for h in range(3):
            for k in range(3):
                assert set(sum_diff(a, h, k)) == brute_sum_diff(a, h, k)

    def test_decodes_once(self, monkeypatch):
        calls = []

        def counted(mask, base=0):
            calls.append(base)
            return _bit_positions(mask, base)

        monkeypatch.setattr(setops, "_bit_positions", counted)
        got = sum_diff(A1, 3, 2)
        assert calls == [3 * A1.min - 2 * A1.max]
        assert set(got) == brute_sum_diff(A1, 3, 2)
        assert got._mask_cache == IntSet(got.elements).mask


class TestSumDiffEnvelope:
    def test_one_fold_is_the_set_itself_at_any_span(self):
        a = IntSet([0, 1 << 40])
        assert sum_diff(a, 1, 0) == a and h_fold(a, 1) == a

    def test_span_over_the_kernel_limit(self):
        a = IntSet([0, (1 << 26) + 1])
        want = f"span {(1 << 27) + 2} exceeds the dense-kernel limit of {MAX_SPAN_BITS} bits"
        for h, k in ((2, 0), (1, 1), (0, 2)):
            with pytest.raises(ValueError, match=re.escape(want)):
                sum_diff(a, h, k)

    def test_range_just_above_a_third_of_i64(self):
        x = I64_MAX // 3
        assert sum_diff(IntSet([x]), 3, 0) == IntSet([3 * x])
        want = f"value {3 * (x + 1)} exceeds the signed 64-bit range"
        with pytest.raises(OverflowError, match=re.escape(want)):
            sum_diff(IntSet([x + 1]), 3, 0)

    @pytest.mark.parametrize("h, k", [(3, 3), (1, 3)])
    def test_sums_are_checked_before_the_difference(self, h, k):
        # hA - kA fits in the signed 64-bit range, but the 3-fold sums leave it
        x = I64_MAX // 3
        with pytest.raises(OverflowError, match=re.escape(f"value {3 * (x + 1)} exceeds")):
            sum_diff(IntSet([x, x + 1]), h, k)


    @pytest.mark.parametrize(
        "elems, h, k, error, message",
        [
            # the span check fails first, at j = 2^27 + 1
            ([0, 1], 10**9, 0, ValueError, f"span {MAX_SPAN_BITS + 1} exceeds"),
            # j max A leaves signed 64 bits at j = 2^23
            ([1 << 40, (1 << 40) + 1], 10**18, 3, OverflowError, f"value {1 << 63} exceeds"),
            # j min A at j = 2^23 + 1, since -2^63 itself fits
            ([-(1 << 40), 1 - (1 << 40)], 5, 10**18, OverflowError,
             f"value {-(((1 << 23) + 1) << 40)} exceeds"),
        ],
        ids=["span", "max", "min"],
    )
    def test_large_fold_counts_checked_in_a_few_calls(
        self, monkeypatch, elems, h, k, error, message
    ):
        _limit_calls(monkeypatch, "_check_i64", "_check_span")
        with pytest.raises(error, match=re.escape(message)):
            sum_diff(IntSet(elems), h, k)

    def test_one_point_folds_at_any_count(self, monkeypatch):
        _limit_calls(monkeypatch, "_check_i64", "_check_span", "_shift_or")
        assert h_fold(IntSet([0]), 10**18) == IntSet([0])
        assert sum_diff(IntSet([0]), 10**18, 10**18) == IntSet([0])
        assert sum_diff(IntSet([-3]), 2, 10**18 + 2) == IntSet([3 * 10**18])


def _limit_calls(monkeypatch, *names, most=40):
    """Make setops' functions ``names`` raise once they are called more than
    ``most`` times in all, so that work that grows with a fold count fails
    at once instead of running on."""
    calls = []
    for name in names:
        def limited(*args, real=getattr(setops, name)):
            calls.append(name)
            assert len(calls) <= most, f"more than {most} calls"
            return real(*args)

        monkeypatch.setattr(setops, name, limited)


def _check_sum_diff_per_fold(lo, hi, h, k):
    """``setops._check_sum_diff`` as the checks of each j-fold in turn."""
    for j in range(2, max(h, k) + 1):
        _check_i64(j * lo)
        _check_i64(j * hi)
        _check_span(j * (hi - lo))
    lo, hi = _check_i64(h * lo - k * hi), _check_i64(h * hi - k * lo)
    _check_span(hi - lo)
    return lo, hi


def _outcome(check, *args):
    try:
        return check(*args)
    except (OverflowError, ValueError) as e:
        return type(e), str(e)


# values that a j-fold for j <= 40 takes past signed 64 bits, or past the span limit,
# or just short of it
_near_i64 = st.builds(
    lambda j, d, sign: sign * ((1 << 63) // j + d),
    st.integers(1, 40), st.integers(-2, 2), st.sampled_from((1, -1)),
)
_near_span = st.builds(lambda j, d: MAX_SPAN_BITS // j + d, st.integers(1, 40), st.integers(-2, 2))


@given(
    st.one_of(st.integers(-9, 9), _near_i64),
    st.one_of(st.integers(0, 9), _near_span),
    st.integers(0, 45),
    st.integers(0, 45),
)
def test_envelope_checks_match_the_checks_per_fold(lo, span, h, k):
    assume(I64_MIN <= lo and lo + span <= I64_MAX)
    args = (lo, lo + span, h, k)
    assert _outcome(setops._check_sum_diff, *args) == _outcome(_check_sum_diff_per_fold, *args)


def test_envelope_admits_j_folds_at_their_bounds():
    # 4 * 2^25 is the span limit itself; one more in A's span is past it
    assert setops._check_sum_diff(0, 1 << 25, 4, 0) == (0, MAX_SPAN_BITS)
    with pytest.raises(ValueError, match=f"exceeds the dense-kernel limit of {MAX_SPAN_BITS}"):
        setops._check_sum_diff(0, (1 << 25) + 1, 4, 0)
    # 7 divides 2^63 - 1, and 8 * -2^60 is -2^63
    assert sum_diff(IntSet([I64_MAX // 7]), 7, 0) == IntSet([I64_MAX])
    assert sum_diff(IntSet([-(1 << 60)]), 8, 0) == IntSet([I64_MIN])


@pytest.mark.parametrize(
    "call, message",
    [(lambda: h_fold(A1, 2.0), "h must be an integer, got 2.0"),
     (lambda: h_fold(A1, True), "h must be an integer, got true"),
     (lambda: sum_diff(A1, 1, 1.0), "k must be an integer, got 1.0"),
     (lambda: sum_diff(A1, True, False), "h must be an integer, got true"),
     (lambda: sum_diff(A1, 2, False), "k must be an integer, got false"),
     (lambda: sum_diff(A1, "1", 1), 'h must be an integer, got "1"')],
)
def test_fold_counts_must_be_integers(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_fold_counts_accept_numpy_integers():
    assert h_fold(A1, np.int64(2)) == sumset(A1, A1)
    assert sum_diff(A1, np.int32(1), np.uint8(1)) == diffset(A1, A1)


class TestAffine:
    def test_identity(self):
        assert affine(A1, 1, 0) == A1

    def test_reflect_translate(self):
        assert affine(A1, -1, 14) == IntSet([0, 2, 3, 7, 10, 11, 12, 14])

    def test_preserves_delta(self):
        assert mstd_delta(affine(A1, 2, 1)).delta == mstd_delta(A1).delta == 1

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            affine(A1, 0, 3)

    @pytest.mark.parametrize(
        "x, y, message",
        [(0.5, 0, "x must be an integer, got 0.5"),
         (1, 0.5, "y must be an integer, got 0.5"),
         (2.0, 1, "x must be an integer, got 2.0"),
         (True, 0, "x must be an integer, got true"),
         (1, False, "y must be an integer, got false")],
    )
    def test_non_integers_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            affine(IntSet([0, 1, 3]), x, y)

    def test_numpy_integers_accepted(self):
        got = affine(IntSet([0, 1, 3]), np.int64(-2), np.int32(5))
        assert got == IntSet([-1, 3, 5])
        assert all(type(e) is int for e in got)
        assert mstd_delta(got) == mstd_delta(IntSet([0, 1, 3]))


class TestSymmetry:
    def test_progression(self):
        w = symmetry_witness(IntSet([3, 5, 7]))
        assert w is not None and w.center == 10

    def test_a1_not_symmetric(self):
        assert symmetry_witness(A1) is None

    def test_a1_minus_4(self):
        w = symmetry_witness(IntSet(e for e in A1 if e != 4))
        assert w is not None and w.center == 14

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            symmetry_witness(IntSet())


class TestNormalize:
    def test_translate(self):
        assert normalize(IntSet([10, 12, 14])) == IntSet([0, 1, 2])

    def test_already_normal(self):
        assert normalize(A1) == A1

    def test_gcd_division(self):
        assert normalize(IntSet([3, 7, 11])) == IntSet([0, 1, 2])

    def test_singleton(self):
        assert normalize(IntSet([42])) == IntSet([0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize(IntSet())


class TestOverflow:
    def test_construction_out_of_range(self):
        with pytest.raises(OverflowError):
            IntSet([1 << 63])

    def test_sumset_overflow(self):
        big = IntSet([(1 << 62), (1 << 62) + 2])
        with pytest.raises(OverflowError):
            sumset(big, big)

    def test_affine_overflow(self):
        with pytest.raises(OverflowError):
            affine(IntSet([1 << 62]), 4, 0)

    def test_span_too_large(self):
        wide = IntSet([0, 1 << 60])
        with pytest.raises(ValueError):
            sumset(wide, wide)

    def test_mstd_delta_overflow(self):
        with pytest.raises(OverflowError):
            mstd_delta(IntSet([(1 << 62), (1 << 62) + 2]))

    def test_mstd_delta_span_too_large(self):
        with pytest.raises(ValueError):
            mstd_delta(IntSet([0, 1 << 60]))
        # A's own mask fits; the span of A+A and A-A does not
        half = IntSet([0, MAX_SPAN_BITS // 2 + 1])
        for op in (lambda a: sumset(a, a), lambda a: diffset(a, a), mstd_delta):
            with pytest.raises(ValueError):
                op(half)

    def test_mstd_delta_empty(self):
        assert mstd_delta(IntSet()) == MstdDelta(0, 0)


class TestParsing:
    def test_text_round_trip(self):
        assert IntSet.from_text(A1.to_text()) == A1

    def test_json_round_trip(self):
        assert IntSet.from_json(A1.to_json()) == A1
        assert json.loads(A1.to_json()) == {"elements": list(A1.elements)}

    def test_text_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            IntSet.from_text("3 2 5")

    def test_text_rejects_duplicates(self):
        with pytest.raises(ValueError):
            IntSet.from_text("1 2 2")

    @pytest.mark.parametrize("text", ["1_000", "\u0663 4", "1 \uff12", "0x10", "1.0", "+-2", "5+"])
    def test_text_rejects_non_decimal_tokens(self, text):
        # int() alone reads "1_000" as 1000 and the Arabic-Indic "\u0663" as 3
        with pytest.raises(ValueError, match="is not a decimal integer"):
            IntSet.from_text(text)

    def test_text_accepts_signs_and_leading_zeros(self):
        assert IntSet.from_text("-3 +5 007\n9") == IntSet([-3, 5, 7, 9])

    def test_json_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            IntSet.from_json('{"elements": [1, 3, 2]}')

    def test_json_rejects_duplicates(self):
        with pytest.raises(ValueError):
            IntSet.from_json('{"elements": [1, 1]}')

    def test_json_rejects_non_integers(self):
        with pytest.raises(ValueError):
            IntSet.from_json('{"elements": [1, 2.5]}')
        with pytest.raises(ValueError, match="element must be an integer, got true"):
            IntSet.from_json('{"elements": [true, 2]}')
        with pytest.raises(ValueError):
            IntSet.from_json('{"elements": "nope"}')

    @pytest.mark.parametrize(
        "bad, shown",
        [(1.9, "1.9"), (True, "true"), ("3", '"3"'), (np.float32(2.5), "np.float32(2.5)")],
    )
    def test_constructor_rejects_non_integers(self, bad, shown):
        message = f"element must be an integer, got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            IntSet([1, bad])

    def test_constructor_accepts_numpy_integers(self):
        got = IntSet([np.int64(3), np.uint8(1), 2])
        assert got == IntSet([1, 2, 3])
        assert all(type(e) is int for e in got)

    def test_membership_agrees_with_constructor(self):
        s = IntSet([1, 3])
        assert np.int64(3) in s and np.uint8(1) in s and np.int32(2) not in s
        # the constructor refuses these, so none is an element; none raises
        for other in (True, 1.0, np.float64(3.0), "3", None, [1]):
            assert other not in s
        assert np.int64(0) not in IntSet()

    def test_empty_inputs(self):
        assert IntSet.from_text("") == IntSet()
        assert IntSet.from_json('{"elements": []}') == IntSet()


class TestIntSetBasics:
    def test_empty_set_has_no_min_or_max(self):
        with pytest.raises(ValueError, match="^empty set has no minimum$"):
            IntSet().min
        with pytest.raises(ValueError, match="^empty set has no maximum$"):
            IntSet().max

    def test_union_with_a_non_set_is_a_type_error(self):
        with pytest.raises(TypeError):
            IntSet([1]) | 1

    def test_repr_and_hash(self):
        assert repr(IntSet([3, -1, 2])) == "IntSet({-1, 2, 3})"
        assert repr(IntSet()) == "IntSet({})"
        assert hash(IntSet([2, 1])) == hash(IntSet([1, 2]))
        assert len({IntSet([2, 1]), IntSet([1, 2]), IntSet()}) == 2


class TestIntervalHelper:
    def test_basic(self):
        assert interval(2, 5) == IntSet([2, 3, 4, 5])

    def test_empty(self):
        assert interval(5, 2) == IntSet()

    def test_span_checked_before_building(self):
        with pytest.raises(ValueError, match="dense-kernel limit"):
            interval(0, 1 << 62)

    def test_numpy_integers_build_plain_ints(self):
        got = interval(np.int64(1), np.uint8(3))
        assert got == IntSet([1, 2, 3])
        assert all(type(e) is int for e in got)

    @pytest.mark.parametrize(
        "args, message",
        [((True, 3), "lo must be an integer, got true"),
         ((0.5, 3), "lo must be an integer, got 0.5"),
         ((0, 3.0), "hi must be an integer, got 3.0"),
         ((5, False), "hi must be an integer, got false")],
    )
    def test_non_integer_bounds_rejected(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            interval(*args)


@given(int_sets)
def test_diff_pairing(a):
    d = diffset(a, a)
    assert all(-c in d for c in d)


@given(int_sets)
def test_diff_parity_odd(a):
    assert len(diffset(a, a)) % 2 == 1


@given(int_sets)
def test_cardinality_bounds(a):
    n = len(a)
    s = len(sumset(a, a))
    d = len(diffset(a, a))
    assert 2 * n - 1 <= s <= n * (n + 1) // 2
    assert 2 * n - 1 <= d <= n * n - n + 1


@given(int_sets, st.integers(-30, 30))
def test_symmetric_sets_balance(a, c):
    sym = IntSet(list(a) + [c - e for e in a])
    assert symmetry_witness(sym) is not None
    assert len(sumset(sym, sym)) == len(diffset(sym, sym))


@given(int_sets, st.integers(-5, 5).filter(lambda x: x != 0), st.integers(-40, 40))
def test_affine_invariance(a, x, y):
    assert mstd_delta(affine(a, x, y)).delta == mstd_delta(a).delta


@given(int_sets, st.integers(1, 5), st.integers(-40, 40))
def test_normalize_affine_consistency(a, x, y):
    assert normalize(affine(a, x, y)) == normalize(a)


@given(int_sets)
def test_normalize_idempotent(a):
    assert normalize(normalize(a)) == normalize(a)


@given(int_sets, int_sets)
def test_sumset_commutative_and_matches_brute(a, b):
    got = sumset(a, b)
    assert got == sumset(b, a)
    assert set(got) == brute_sumset(a, b)


@given(
    st.builds(IntSet, st.lists(st.integers(-9, 9), max_size=4)),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_sum_diff_matches_brute(a, h, k):
    assert set(sum_diff(a, h, k)) == brute_sum_diff(a, h, k)


@given(ap_sets, ap_sets)
def test_progression_unions_match_brute(a, b):
    assert set(sumset(a, b)) == brute_sumset(a, b)
    assert set(diffset(a, b)) == brute_diffset(a, b)
    assert set(diffset(b, a)) == brute_diffset(b, a)
    assert mstd_delta(a) == MstdDelta(len(brute_sumset(a, a)), len(brute_diffset(a, a)))


def _iterated_fold(a, h, k) -> set:
    """hA - kA by h brute-force sums and k brute-force differences."""
    acc = {0}
    for _ in range(h):
        acc = brute_sumset(acc, a)
    for _ in range(k):
        acc = brute_diffset(acc, a)
    return acc


@given(ap_sets, st.integers(0, 2), st.integers(0, 2))
def test_progression_unions_sum_diff(a, h, k):
    assert set(sum_diff(a, h, k)) == _iterated_fold(a, h, k)


def _plain_shift_or(mask, shifts):
    acc = 0
    for s in shifts:
        acc |= mask << s
    return acc


@given(
    st.integers(0, 1 << 70),
    st.lists(progressions, min_size=1, max_size=4),
    st.randoms(use_true_random=False),
)
def test_shift_or_matches_plain_loop(mask, aps, rnd):
    shifts = [s + 60 for s in _union(aps)]  # nonnegative
    want = _plain_shift_or(mask, shifts)
    assert _shift_or(mask, shifts) == want
    assert _shift_or(mask, reversed(shifts)) == want
    mixed = shifts + shifts[: len(shifts) // 2]
    rnd.shuffle(mixed)
    assert _shift_or(mask, mixed) == want
    assert _shift_or(mask, (s for s in mixed)) == want


@pytest.mark.parametrize(
    "shifts",
    [
        [],
        list(range(_FOLD_MIN - 1)),
        list(range(_FOLD_MIN)),
        # runs of _RUN_MIN - 1 and _RUN_MIN shifts between isolated shifts
        [0, 1, 2, 40, 45, 50, 55, 100] + list(range(200, 200 + 3 * _FOLD_MIN, 3)),
        # two runs sharing an endpoint, then one run ending the list
        list(range(0, 10)) + list(range(11, 40, 2)) + list(range(100, 400, 7)),
        [5] * (2 * _FOLD_MIN),
        list(range(_RUN_MIN * _FOLD_MIN, 0, -_RUN_MIN)),
        # descending runs of exactly _RUN_MIN and _RUN_MIN - 1 shifts
        [900] + list(range(100, 100 - 7 * _RUN_MIN, -7)) + [950]
        + list(range(60, 60 - 5 * (_RUN_MIN - 1), -5)) + [3]
        + list(range(400, 400 + 2 * _FOLD_MIN)),
        # step-0 runs of _RUN_MIN and _RUN_MIN - 1 equal shifts
        [5] * _RUN_MIN + [9] + [5] * (_RUN_MIN - 1) + [2] * (2 * _FOLD_MIN) + [70, 70, 71],
        # a descending run ending the list, after an isolated shift
        list(range(2 * _FOLD_MIN)) + [500] + list(range(300, 300 - 6 * _RUN_MIN, -6)),
        # an ascending and a descending run sharing their top, and then
        # a descending and an ascending run sharing their bottom
        list(range(0, 90, 3)) + list(range(82, 0, -5)),
        list(range(90, 17, -9)) + list(range(20, 100, 2)),
    ],
)
def test_shift_or_edge_cases(shifts):
    assert _shift_or(0b1011, shifts) == _plain_shift_or(0b1011, shifts)
    assert _shift_or(0b1011, iter(shifts)) == _plain_shift_or(0b1011, shifts)


# (start, step, length) runs as _fold_runs takes them: start 0 and step 0
# included; several in a list may overlap or nest
fold_runs = st.lists(
    st.tuples(st.integers(0, 80), st.integers(0, 9), st.integers(1, 70)), max_size=5
)


@given(st.integers(0, 1 << 70), fold_runs)
def test_fold_runs_matches_plain_loop(mask, runs):
    assert _fold_runs(mask, runs) == _plain_shift_or(mask, _union(runs))


def test_fold_runs_every_length():
    # every length from 1 to 70, so the doubling stops at each power of two
    # with every tail, alone and beside a second run that may overlap it
    rng = random.Random(16)
    for length in range(1, 71):
        for step in (0, 1, 3, 64):
            runs = [(0, step, length), (rng.randrange(50), step, rng.randint(1, 70))]
            for part in (runs[:1], runs, runs[::-1]):
                assert _fold_runs(0b1011, part) == _plain_shift_or(0b1011, _union(part))


def _reference_positions(mask: int, base: int) -> list[int]:
    """The set bits of ``mask``, read one binary digit at a time."""
    return [base + i for i, digit in enumerate(reversed(format(mask, "b"))) if digit == "1"]


def _random_mask(rng: random.Random, bits: int, density: float) -> int:
    return int("".join("1" if rng.random() < density else "0" for _ in range(bits)), 2)


_SEEDED_MASKS = [
    _random_mask(random.Random(seed), bits, density)
    for seed, (bits, density) in enumerate(
        itertools.product((1, 7, 64, 65, 1000, 10**5), (0.001, 0.1, 0.5, 0.9, 1.0))
    )
]


@pytest.mark.parametrize("base", [0, 5, -1, -(10**6), 2**40])
@pytest.mark.parametrize(
    "mask",
    [0, 1, 2, 3, 1 << 63, 1 << 64, (1 << 64) - 1, 1 << 99_999, (1 << 99_999) | 1]
    + _SEEDED_MASKS,
    ids=lambda mask: f"{mask.bit_length()}bits-{mask.bit_count()}set",
)
def test_bit_positions_match_reference(mask, base):
    got = _bit_positions(mask, base)
    assert type(got) is list and all(type(i) is int for i in got)
    assert got == _reference_positions(mask, base)


def test_bit_positions_default_base_is_zero():
    assert _bit_positions(0b101101) == [0, 2, 3, 5]
    assert _bit_positions(0) == []
