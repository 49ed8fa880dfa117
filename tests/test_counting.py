import itertools
import random
import re

import numpy as np
import pytest

from mstdkit import (
    GroupSpec,
    GroupSubset,
    ParityGraph,
    count_covering,
    coverage_bound,
    covers_group,
    find_group_mstd,
    miss_count,
)
from mstdkit import counting, grouplattice
from mstdkit.counting import MAX_COUNT_N
from mstdkit.grouplattice import _group_cards
from oracles import brute_group_fold, enumerate_covering

# Exact covering counts, frozen from an exhaustive enumeration: pairwise
# group sumsets, the scalar mask test and the vectorized scan agreed up to
# n = 16, and the vectorized scan gave n = 17..24.
COVERING = {
    4: 0,
    5: 0,
    6: 0,
    7: 28,
    8: 64,
    9: 252,
    10: 480,
    11: 1364,
    12: 2760,
    13: 6552,
    14: 13048,
    15: 29040,
    16: 57792,
    17: 122400,
    18: 244440,
    19: 504868,
    20: 1008720,
    21: 2054416,
    22: 4105640,
    23: 8294444,
    24: 16583464,
}

SMALLEST_COVERING_N = 7


def group_fold(sub, h, k):
    """hA - kA of a group subset, by the brute-force oracle."""
    return brute_group_fold(sub.elements, sub.spec.moduli, h, k)


def _fold_cards(mask, n):
    """(|A+A|, |A-A|) of the parity graph with E1 = mask: the group fold's bit counts."""
    sub = ParityGraph.from_mask(n, mask).to_subset()
    return tuple(_group_cards(sub, (2, 0), (1, 1)))


def brute_sumset_size(n, eps):
    elements = {(i, e) for i, e in enumerate(eps)}
    return len(brute_group_fold(elements, (n, 2), 2, 0))


def brute_covers(n, eps):
    return brute_sumset_size(n, eps) == 2 * n


def closed_form_miss(n, b, parity):
    if n % 2 == 1:
        return 0 if parity == 0 else 2 ** ((n + 1) // 2)
    if b % 2 == 1:
        return 2 ** (n // 2)
    return 0 if parity == 0 else 2 ** ((n + 2) // 2)


class TestParityGraph:
    def test_mask_round_trip(self):
        g = ParityGraph(5, (1, 0, 1, 1, 0))
        assert ParityGraph.from_mask(5, g.mask) == g

    def test_subset_shape(self):
        sub = ParityGraph(4, (0, 1, 0, 1)).to_subset()
        assert sub.spec == GroupSpec((4, 2))
        assert sub.elements == {(0, 0), (1, 1), (2, 0), (3, 1)}

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            ParityGraph(1, (0,))

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            ParityGraph(3, (0, 1))
        with pytest.raises(ValueError):
            ParityGraph(3, (0, 1, 2))

    @pytest.mark.parametrize("bad, shown", [(1.0, "1.0"), (True, "true"), ("1", '"1"')])
    def test_non_integers_rejected(self, bad, shown):
        with pytest.raises(ValueError, match=re.escape(f"eps must be an integer, got {shown}")):
            ParityGraph(3, (0, bad, 1))
        with pytest.raises(ValueError, match="n must be an integer"):
            ParityGraph(3.0, (0, 1, 1))
        assert ParityGraph(np.int64(3), (0, np.uint8(1), 1)) == ParityGraph(3, (0, 1, 1))

    @pytest.mark.parametrize(
        "n, mask, message",
        [(3, 0b1000, "mask must be in [0, 2^3)"), (3, -1, "mask must be in [0, 2^3)"),
         (3, True, "mask must be an integer, got true"),
         (3, 2.0, "mask must be an integer, got 2.0"),
         (3.0, 1, "n must be an integer, got 3.0"), (1, 0, "n must be at least 2")],
    )
    def test_from_mask_rejects_what_it_cannot_represent(self, n, mask, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ParityGraph.from_mask(n, mask)

    def test_from_mask_takes_every_mask_in_range(self):
        assert [ParityGraph.from_mask(2, m).eps for m in range(4)] == [
            (0, 0), (1, 0), (0, 1), (1, 1)
        ]
        assert ParityGraph.from_mask(np.int64(3), np.uint8(5)) == ParityGraph(3, (1, 0, 1))


class TestCoverageBound:
    @pytest.mark.parametrize(
        "n, message",
        [(2.5, "n must be an integer, got 2.5"), (True, "n must be an integer, got true"),
         (-3, "n must be at least 2"), (1, "n must be at least 2")],
    )
    def test_rejects_non_graph_sizes(self, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            coverage_bound(n)

    def test_takes_any_integer_from_two(self):
        assert coverage_bound(2) == 2**2 - 2 * 2**2
        assert coverage_bound(np.int64(7)) == coverage_bound(7)
        n = MAX_COUNT_N + 1  # one closed form, with no cap
        assert coverage_bound(n) == 2**n - n * 2 ** (n // 2 + 1)


class TestCovers:
    def test_n2_never_covers(self):
        for eps in itertools.product((0, 1), repeat=2):
            g = ParityGraph(2, eps)
            assert not covers_group(g)
            assert not brute_covers(2, eps)

    def test_matches_brute_exhaustively(self):
        for n in range(2, 10):
            for mask in range(1 << n):
                g = ParityGraph.from_mask(n, mask)
                size = brute_sumset_size(n, g.eps)
                assert covers_group(g) == (size == 2 * n)
                assert _fold_cards(mask, n)[0] == size

    def test_difference_always_misses_odd_zero_exhaustive(self):
        for n in range(2, 13):
            for mask in range(1 << n):
                sub = ParityGraph.from_mask(n, mask).to_subset()
                diff = group_fold(sub, 1, 1)
                assert (0, 1) not in diff
                assert len(diff) <= 2 * n - 1
                assert _fold_cards(mask, n)[1] == len(diff)

    def test_difference_always_misses_odd_zero_random_large(self):
        rng = random.Random(31)
        for n in range(13, 17):
            for _ in range(50):
                mask = rng.getrandbits(n)
                sub = ParityGraph.from_mask(n, mask).to_subset()
                diff = group_fold(sub, 1, 1)
                assert (0, 1) not in diff
                assert len(diff) <= 2 * n - 1
                assert _fold_cards(mask, n)[1] == len(diff)
        for n in (64, 257):
            for _ in range(3):
                mask = rng.getrandbits(n)
                sub = ParityGraph.from_mask(n, mask).to_subset()
                want = (len(group_fold(sub, 2, 0)), len(group_fold(sub, 1, 1)))
                assert _fold_cards(mask, n) == want


class TestCountCovering:
    def test_fixture_counts(self):
        for n, want in COVERING.items():
            assert count_covering(n).covering == want

    def test_counts_match_per_graph_scan(self):
        for n in range(2, 11):
            want = sum(
                1 for m in range(1 << n) if covers_group(ParityGraph.from_mask(n, m))
            )
            assert count_covering(n).covering == want

    def test_matches_enumeration_oracle(self):
        for n in range(2, 21):
            rep = count_covering(n)
            covering, misses = enumerate_covering(n)
            assert rep.covering == covering, n
            assert rep.misses == misses, n
            for (b, p), want in misses.items():
                assert miss_count(n, b, p) == want

    def test_exact_beyond_enumeration(self):
        for n in (25, 64, 257, 1000):
            rep = count_covering(n)
            assert rep.bound <= rep.covering < 2**n
            assert 2**n - rep.covering <= sum(rep.misses.values())

    def test_bound_formula(self):
        assert coverage_bound(7) == 2**7 - 7 * 2**4
        assert coverage_bound(8) == 2**8 - 8 * 2**5

    def test_meets_bound(self):
        for n in range(4, 17):
            rep = count_covering(n)
            assert rep.covering >= rep.bound
            assert rep.meets_bound

    def test_union_bound_consistency(self):
        for n in range(3, 13):
            rep = count_covering(n)
            assert 2**n - rep.covering <= sum(rep.misses.values())

    def test_covering_fraction_trends_up_within_parity(self):
        fractions = {n: COVERING[n] / 2**n for n in COVERING}
        for parity in (0, 1):
            ns = sorted(n for n in fractions if n % 2 == parity and n >= 7)
            for a, b in zip(ns, ns[1:]):
                assert fractions[a] < fractions[b]

    def test_budget(self):
        assert count_covering(MAX_COUNT_N).n == MAX_COUNT_N
        with pytest.raises(ValueError):
            count_covering(MAX_COUNT_N + 1)
        with pytest.raises(ValueError):
            count_covering(1)
        with pytest.raises(ValueError):
            miss_count(MAX_COUNT_N + 1, 0, 0)


class TestMissCounts:
    def test_closed_forms(self):
        for n in [*range(2, 65), 4095, 4096]:
            rep = count_covering(n)
            for b in range(n):
                for parity in (0, 1):
                    got = rep.misses[(b, parity)]
                    want = closed_form_miss(n, b, parity)
                    assert got == want, (
                        f"enumerated miss count {got} for n={n}, g=({b},{parity}) "
                        f"disagrees with the closed form {want}"
                    )

    def test_table_from_the_classes_of_b(self, monkeypatch):
        # T(b, c, e, u) depends on b only through b mod gcd(2, n), so the table
        # and the weighted sum evaluate it only at b = 0 and, for n even, b = 1
        seen = []
        twisted_fixed = counting._twisted_fixed

        def recorded(n, b, *rest):
            seen.append(b)
            return twisted_fixed(n, b, *rest)

        monkeypatch.setattr(counting, "_twisted_fixed", recorded)
        for n, classes in ((21, {0}), (4095, {0}), (22, {0, 1}), (4096, {0, 1})):
            seen.clear()
            assert len(count_covering(n).misses) == 2 * n
            assert set(seen) == classes

    def test_single_element_queries(self):
        assert miss_count(5, 0, 0) == 0
        assert miss_count(5, 0, 1) == 8
        assert miss_count(5, 3, 1) == 8
        assert miss_count(6, 1, 0) == 8
        assert miss_count(6, 1, 1) == 8
        assert miss_count(6, 2, 1) == 16
        assert miss_count(6, 2, 0) == 0

    def test_query_validation(self):
        with pytest.raises(ValueError):
            miss_count(6, 6, 0)
        with pytest.raises(ValueError):
            miss_count(6, 0, 2)


@pytest.mark.parametrize(
    "call, message",
    [(lambda: miss_count(7, 1.0, 0), "b must be an integer, got 1.0"),
     (lambda: miss_count(7, 1, True), "parity must be an integer, got true"),
     (lambda: miss_count(7.0, 1, 0), "n must be an integer, got 7.0"),
     (lambda: count_covering(7.0), "n must be an integer, got 7.0"),
     (lambda: count_covering(True), "n must be an integer, got true"),
     (lambda: find_group_mstd(7.0), "n must be an integer, got 7.0"),
     (lambda: find_group_mstd("9"), 'n must be an integer, got "9"'),
     (lambda: find_group_mstd(9, "random", 1.5), "seed must be an integer, got 1.5"),
     (lambda: find_group_mstd(9, "random", True), "seed must be an integer, got true")],
)
def test_entry_points_take_only_integers(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_entry_points_accept_numpy_integers():
    assert miss_count(np.int64(6), np.int32(2), np.uint8(1)) == miss_count(6, 2, 1)
    assert count_covering(np.int64(9)).covering == COVERING[9]
    assert find_group_mstd(np.int16(9), "random", np.int64(123)) == find_group_mstd(
        9, "random", 123
    )


class TestFindGroupMstd:
    def test_smallest_admitting_n(self):
        for n in range(2, SMALLEST_COVERING_N):
            with pytest.raises(RuntimeError):
                find_group_mstd(n)
        sub = find_group_mstd(SMALLEST_COVERING_N)
        assert isinstance(sub, GroupSubset)

    def test_witness_cardinalities(self):
        for n in (7, 8, 9):
            sub = find_group_mstd(n)
            assert len(group_fold(sub, 2, 0)) == 2 * n
            assert len(group_fold(sub, 1, 1)) <= 2 * n - 1

    def test_first_is_deterministic(self):
        a = find_group_mstd(8, strategy="first")
        b = find_group_mstd(8, strategy="first")
        assert a == b

    def test_random_seeded_deterministic(self):
        a = find_group_mstd(9, strategy="random", seed=123)
        b = find_group_mstd(9, strategy="random", seed=123)
        assert a == b
        assert len(group_fold(a, 2, 0)) == 18

    def test_recheck_builds_one_layout(self, monkeypatch):
        layouts = []
        group_layout = grouplattice._group_layout

        def counted(*args):
            layouts.append(args[1:])
            return group_layout(*args)

        monkeypatch.setattr(grouplattice, "_group_layout", counted)
        for n in (7, 64):
            find_group_mstd(n)
        find_group_mstd(9, strategy="random", seed=123)
        assert layouts == [(2,)] * 3

    @pytest.mark.parametrize("seed", [0, 5])
    def test_first_rejects_a_seed(self, seed):
        message = "strategy 'first' does not take parameter(s): seed"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            find_group_mstd(7, "first", seed=seed)

    def test_random_needs_a_seed(self):
        # an unseeded draw would not be reproducible
        with pytest.raises(ValueError, match="^strategy 'random' needs a seed$"):
            find_group_mstd(9, "random")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            find_group_mstd(7, strategy="exhaustive")

    def test_first_witness_is_0b1011(self):
        # find_group_mstd's docstring proves this for every n >= 7
        for n in [*range(7, 65), MAX_COUNT_N]:
            assert find_group_mstd(n) == ParityGraph.from_mask(n, 0b1011).to_subset()

    def test_search_cap(self):
        # find_group_mstd re-verifies its witness's group folds itself
        assert len(find_group_mstd(MAX_COUNT_N)) == MAX_COUNT_N
        for n in (1, MAX_COUNT_N + 1):
            for strategy in ("first", "random"):
                with pytest.raises(ValueError, match=rf"n must be in \[2, {MAX_COUNT_N}\]"):
                    find_group_mstd(n, strategy=strategy)
