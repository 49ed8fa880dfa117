import collections
import functools
import gc
import hashlib
import itertools
import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mstdkit import IntSet, exhaustive_spectrum, mstd_delta, normalize, random_search
from mstdkit import search
from mstdkit.search import MAX_RANGE
from mstdkit.setops import I64_MAX, MAX_SPAN_BITS
from oracles import (
    _lex_key,
    brute_diffset,
    brute_sumset,
    random_draws,
    replay_random_search,
    score_batch,
)


def brute_spectrum(range_max, min_size, max_size):
    spectrum = {}
    witnesses = {}
    for size in range(min_size, max_size + 1):
        for combo in itertools.combinations(range(range_max + 1), size):
            a = IntSet(combo)
            d = mstd_delta(a).delta
            spectrum[d] = spectrum.get(d, 0) + 1
            if size:
                w = normalize(a)
                if d not in witnesses or w.elements < witnesses[d].elements:
                    witnesses[d] = w
    return spectrum, witnesses


@functools.lru_cache(maxsize=None)
def _brute_band(range_max, min_size, max_size):
    return brute_spectrum(range_max, min_size, max_size)


class TestExhaustive:
    @pytest.mark.parametrize("range_max", [4, 6, 8])
    def test_matches_brute_full_band(self, range_max):
        want_spec, want_wit = brute_spectrum(range_max, 0, range_max + 1)
        rep = exhaustive_spectrum(range_max, 0, range_max + 1)
        assert rep.spectrum == want_spec
        assert rep.witnesses == want_wit
        assert rep.enumerated == 1 << (range_max + 1)

    # bands cut both ways, below only, above only, and one where the lower
    # size bound left for L falls below 1 once |H| is large; small chunks
    # run the sliced rows with many high-bit patterns, and the H = 0 chunk
    @pytest.mark.parametrize(
        "range_max, min_size, max_size", [(9, 3, 5), (10, 6, 11), (10, 1, 2), (11, 0, 4)]
    )
    @pytest.mark.parametrize("chunk_bits", [1, 3, None], ids=["chunk1", "chunk3", "default"])
    def test_matches_brute_size_band(self, monkeypatch, range_max, min_size, max_size, chunk_bits):
        if chunk_bits is not None:
            monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
        want_spec, want_wit = brute_spectrum(range_max, min_size, max_size)
        rep = exhaustive_spectrum(range_max, min_size, max_size)
        assert rep.spectrum == want_spec
        assert rep.witnesses == want_wit

    @pytest.mark.parametrize("range_max", range(5, 12))
    def test_matches_brute_mirror_grid(self, monkeypatch, range_max):
        # every chunk size from 1 to 4 bits on full, cut and one-size bands,
        # with each node of the walk sorted by how the mirror pairs treat it
        n = range_max
        bands = [(0, n + 1), (1, n + 1), (2, n - 1)] + [(k, k) for k in range(1, n + 2)]
        seen = collections.Counter()
        count_node = search._count_node

        def counted(walk, high, *rest):
            size = bin(high).count("1")
            if walk.min_size - size <= walk.width and walk.max_size - size >= 1:
                top = high.bit_length() - 1
                if not high:
                    seen["no high bits"] += 1
                elif top - 1 < walk.width:
                    seen["top at the width"] += 1
                else:
                    seen["top - 1 in H" if high >> (top - 1) & 1 else "top - 1 not in H"] += 1
            count_node(walk, high, *rest)

        monkeypatch.setattr(search, "_count_node", counted)
        for chunk_bits in range(1, 5):
            monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
            for band in bands:
                want_spec, want_wit = _brute_band(n, *band)
                rep = exhaustive_spectrum(n, *band)
                assert rep.spectrum == want_spec, (chunk_bits, band)
                assert rep.witnesses == want_wit, (chunk_bits, band)
        assert seen.keys() == {
            "no high bits", "top at the width", "top - 1 in H", "top - 1 not in H"
        }

    def test_no_positive_delta_below_range_seven(self):
        rep = exhaustive_spectrum(6, 0, 7)
        assert all(d <= 0 for d in rep.spectrum)

    def test_singletons_have_delta_zero(self):
        rep = exhaustive_spectrum(5, 1, 1)
        assert rep.spectrum == {0: 6}
        assert rep.witnesses == {0: IntSet([0])}

    def test_first_mstd_at_range_fourteen(self):
        rep = exhaustive_spectrum(14, 1, 15)
        assert rep.spectrum[1] == 4
        assert rep.witnesses[1] == IntSet([0, 1, 2, 4, 5, 9, 12, 13, 14])
        assert mstd_delta(rep.witnesses[1]).delta == 1

    def test_witnesses_normalized_and_verified(self):
        rep = exhaustive_spectrum(10, 1, 11)
        for d, w in rep.witnesses.items():
            assert w == normalize(w)
            assert mstd_delta(w).delta == d

    def test_smallest_mstd_set_has_eight_elements(self):
        # Hegarty (2007): no MSTD set has fewer than 8 elements, and up to
        # affine maps {0,2,3,4,7,11,12,14} is the only one with 8
        assert max(exhaustive_spectrum(14, 1, 7).spectrum) == 0
        assert exhaustive_spectrum(14, 8, 8).spectrum[1] == 2  # the set and its reflection
        assert mstd_delta(IntSet([0, 2, 3, 4, 7, 11, 12, 14])).delta == 1

    def test_spectrum_totals(self):
        rep = exhaustive_spectrum(10, 2, 4)
        assert sum(rep.spectrum.values()) == rep.enumerated

    def test_delta_zero_covers_symmetric_subsets(self):
        range_max = 8
        rep = exhaustive_spectrum(range_max, 1, range_max + 1)
        symmetric = 0
        for combo in itertools.chain.from_iterable(
            itertools.combinations(range(range_max + 1), size)
            for size in range(1, range_max + 2)
        ):
            a = IntSet(combo)
            if a.elements == tuple(a.min + a.max - e for e in reversed(a.elements)):
                symmetric += 1
                assert mstd_delta(a).delta == 0
        assert 0 < symmetric <= rep.spectrum[0]

    @pytest.mark.parametrize("chunk_bits", [1, 3, 6])
    def test_chunk_size_invariant(self, monkeypatch, chunk_bits):
        bands = [(0, 13), (1, 13), (4, 6), (0, 0)]
        default = [exhaustive_spectrum(12, lo, hi) for lo, hi in bands]
        monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
        assert [exhaustive_spectrum(12, lo, hi) for lo, hi in bands] == default
        empty = default[-1]
        assert empty.spectrum == {0: 1} and empty.witnesses == {}

    @pytest.mark.parametrize("band", [(16, 1, 17), (17, 4, 9), (16, 15, 17)])
    def test_chunk_split_invariant(self, monkeypatch, band):
        # ranges wider than the default chunk, so chunks with high bits run
        assert band[0] > search._CHUNK_BITS
        default = exhaustive_spectrum(*band)
        for chunk_bits in (3, 17):  # many chunks, then one chunk
            monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
            assert exhaustive_spectrum(*band) == default

    def test_matches_brute_at_the_cap(self):
        want_spec, want_wit = brute_spectrum(MAX_RANGE, 1, 3)
        rep = exhaustive_spectrum(MAX_RANGE, 1, 3)
        assert rep.spectrum == want_spec
        assert rep.witnesses == want_wit

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            exhaustive_spectrum(25, 0, 3)
        with pytest.raises(ValueError):
            exhaustive_spectrum(10, 5, 3)
        with pytest.raises(ValueError):
            exhaustive_spectrum(10, 0, 12)

    def test_numpy_integer_arguments_accepted(self):
        got = exhaustive_spectrum(np.int64(10), np.uint8(1), np.int32(3))
        assert got == exhaustive_spectrum(10, 1, 3)
        assert type(got.range_max) is int

    @pytest.mark.parametrize(
        "args, name",
        [((True, 0, 2), "range_max"), ((10.0, 1, 3), "range_max"),
         ((10, 1.0, 3), "min_size"), ((10, False, 3), "min_size"),
         ((10, 1, 3.5), "max_size"), ((10, 1, True), "max_size")],
    )
    def test_non_integer_arguments_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            exhaustive_spectrum(*args)

    def test_report_serialization(self):
        rep = exhaustive_spectrum(6, 1, 7)
        data = rep.to_dict()
        assert data["range_max"] == 6
        assert sum(data["spectrum"].values()) == rep.enumerated
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "delta,count,witness"
        assert len(csv.splitlines()) == len(rep.spectrum) + 1


def _masks_with_zero(range_max):
    return st.integers(0, (1 << range_max) - 1).map(lambda i: 2 * i + 1)


@st.composite
def _mask_pairs(draw):
    range_max = draw(st.integers(0, MAX_RANGE))
    masks = _masks_with_zero(range_max)
    return range_max, draw(masks), draw(masks)


def _elements(mask):
    return tuple(p for p in range(mask.bit_length()) if mask >> p & 1)


@given(_mask_pairs())
def test_witness_key_orders_as_tuples(pair):
    range_max, a, b = pair
    ka, kb = _lex_key(a, range_max), _lex_key(b, range_max)
    assert ka < 1 << 2 * range_max + 2
    assert (ka < kb) == (_elements(a) < _elements(b))
    assert (ka == kb) == (a == b)


@st.composite
def _masks_with_top(draw):
    """(range_max, mask) for a mask over [0, range_max] with bit 0 and its top."""
    top = draw(st.integers(0, MAX_RANGE))
    inner = draw(st.integers(0, (1 << max(top - 1, 0)) - 1))  # bits 1..top-1
    return draw(st.integers(top, MAX_RANGE)), 1 | inner << 1 | 1 << top


@given(_masks_with_top())
def test_mirror_keeps_delta_and_leads_its_class(pair):
    # R(A) = max A - A: same delta; and with 1 not in A but max A - 1 in A,
    # R(A) comes first in witness order
    range_max, mask = pair
    a = _elements(mask)
    top = a[-1]
    r = tuple(top - x for x in reversed(a))
    mirror = sum(1 << x for x in r)

    def delta(elems):
        return len(brute_sumset(elems, elems)) - len(brute_diffset(elems, elems))

    assert delta(r) == delta(a)
    assert r[0] == 0 and r[-1] == top and len(r) == len(a)
    if top > 1 and not mask >> 1 & 1 and mask >> (top - 1) & 1:
        assert mirror >> 1 & 1 and not mirror >> (top - 1) & 1
        assert _lex_key(mirror, range_max) < _lex_key(mask, range_max)


def test_low_tables_read_only():
    tables = search._low_tables(4)
    # the rows with bit 1 set by size descending, then those without by size
    # ascending, L ascending within each size; edges[s] bounds the rows of
    # size at most s, one slice around the split at row 4
    assert list(tables.low) == [15, 7, 11, 3, 1, 5, 9, 13]
    assert tables.edges == ((4, 4), (4, 5), (3, 7), (1, 8), (0, 8))
    assert list(tables.top) == [3, 2, 3, 1, 0, 2, 3, 3]
    assert tables.top.dtype == np.uint8
    assert tables.diffs.dtype == tables.rev.dtype == np.uint32
    assert list(tables.rev) == [15, 14, 13, 12, 8, 10, 9, 11]
    for name, arr in vars(tables).items():
        if name != "edges":
            with pytest.raises(ValueError):
                arr[0] = 0


def test_scan_leaves_no_reference_cycles():
    # the walk's buffers are freed when the scan returns, not by the collector
    gc.collect()
    gc.disable()
    try:
        exhaustive_spectrum(18, 1, 19)
        assert gc.collect() == 0
    finally:
        gc.enable()


# tracemalloc peak of exhaustive_spectrum(21, 1, 22) with its tables cached:
# 1.36e6 bytes measured (numpy 2.4.6), most of it the count buffers and four
# node buffer pairs; the budget allows 10% more
PEAK_BUDGET = 1_500_000


def test_scan_memory_budget():
    search._low_tables(min(search._CHUNK_BITS, 21) + 1)  # cached tables are not counted
    tracemalloc.start()
    try:
        exhaustive_spectrum(21, 1, 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BUDGET


# sha256 of the spectrum reports of every band of [0, n] for n = 0..12 and of
# five wider bands, cut and full, recorded before the tables were ordered by size
SPECTRUM_SHA256 = "53257622ca2e878e732d85e086b80d2593dcb05970cb78803549be86251b3bc6"


def test_spectrum_output_pinned():
    bands = [(n, lo, hi) for n in range(13) for lo in range(n + 2) for hi in range(lo, n + 2)]
    bands += [(22, 6, 10), (21, 1, 22), (20, 1, 21), (22, 0, 23), (18, 3, 5)]
    digest = hashlib.sha256()
    for band in bands:
        record = [list(band), exhaustive_spectrum(*band).to_dict()]
        digest.update(json.dumps(record).encode() + b"\n")
    assert len(bands) == 564
    assert digest.hexdigest() == SPECTRUM_SHA256


# sha256 of random_search reports on both sides of the uint64 lane limit
# (range_max 63), recorded while every sample was scored on Python ints
RANDOM_SHA256 = "0d9aa4c03af663fe7d9d3562b6137f860ddca9e32d3ab6652a7f134237d110f6"


def _random_grid():
    for range_max in (0, 1, 5, 20, 40, 62, 63, 64, 70):
        for size in sorted({1, 2, 12, range_max + 1}):
            if size <= range_max + 1:
                # 1501 and 7 are multiples of no batch's row count
                for seed, trials in ((1, 1501), (2, 1501), (2, 7)):
                    yield range_max, size, trials, seed


def test_random_output_pinned():
    digest = hashlib.sha256()
    grid = list(_random_grid())
    for args in grid:
        record = [list(args), random_search(*args).to_dict()]
        digest.update(json.dumps(record).encode() + b"\n")
    assert len(grid) == 90
    assert digest.hexdigest() == RANDOM_SHA256


class TestRandom:
    def test_seed_reproducibility(self):
        a = random_search(14, 8, 500, seed=42)
        b = random_search(14, 8, 500, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_search(14, 8, 500, seed=1)
        b = random_search(14, 8, 500, seed=2)
        assert a != b

    def test_witnesses_verify(self):
        rep = random_search(14, 8, 300, seed=9)
        for d, w in rep.witnesses.items():
            assert w == normalize(w)
            assert mstd_delta(w).delta == d

    def test_totals(self):
        rep = random_search(12, 5, 400, seed=3)
        assert sum(rep.spectrum.values()) == 400
        assert rep.enumerated == 400

    def test_mstd_hit_fixture(self):
        rep = random_search(14, 8, 2000, seed=20260809)
        assert sum(c for d, c in rep.spectrum.items() if d > 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            random_search(10, 4, 0, seed=1)
        with pytest.raises(ValueError):
            random_search(10, 12, 5, seed=1)

    @pytest.mark.parametrize("range_max", [I64_MAX, 2**70])
    def test_range_max_over_bound_rejected(self, range_max):
        with pytest.raises(ValueError, match=f"range_max must be at most {I64_MAX - 1}"):
            random_search(range_max, 1, 5, 1)

    @pytest.mark.parametrize(
        "args",
        [(10, 2.0, 5, 1), (True, 1, 5, 1), (10, 2, 5.0, 1), (10, 2, False, 1),
         (10, 2, 5, 1.5), (10, 2, 5, None), ("10", 2, 5, 1)],
    )
    def test_non_integer_arguments_rejected(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            random_search(*args)

    def test_numpy_integer_arguments_accepted(self):
        got = random_search(np.int64(14), np.uint8(8), np.int32(300), np.int64(9))
        assert got == random_search(14, 8, 300, 9)
        assert type(got.range_max) is int

    @pytest.mark.parametrize(
        "args",
        [
            (0, 1, 5, 1),  # the only subset of [0, 0]
            (5, 1, 50, 2),  # singletons
            (5, 6, 20, 3),  # size = range_max + 1: the whole range every time
            (12, 4, 40, 1),  # least witnesses include dilations by 2
            (20, 5, 100, 2),
            (14, 8, 300, 9),
            (40, 12, 500, 5),  # the benchmark's shape
            (80, 40, 200, 4),  # 40 shifts reach the run-folding path
            (600, 64, 20, 6),  # sparse samples at the folding size
            (200, 2, 300, 7),  # pairs: gcd = span, witnesses [0, 1]
            (63, 20, 300, 8),  # the widest range scored in uint64 lanes
            (64, 20, 300, 8),  # the narrowest scored one sample at a time
        ],
    )
    def test_matches_python_set_replay(self, args):
        assert random_search(*args).to_dict() == replay_random_search(*args)

    @pytest.mark.parametrize("chunk_bits", [1, 3, None], ids=["chunk1", "chunk3", "default"])
    def test_batch_size_invariant(self, monkeypatch, chunk_bits):
        # batches of one row up to batches wider than the trials
        grid = [(63, 64, 37, 1), (63, 12, 500, 2), (40, 12, 1001, 5), (20, 1, 50, 3), (5, 2, 99, 4),
                (70, 12, 37, 1), (200, 2, 300, 7)]
        want = [replay_random_search(*args) for args in grid]
        if chunk_bits is not None:
            monkeypatch.setattr(search, "_CHUNK_BITS", chunk_bits)
        assert [random_search(*args).to_dict() for args in grid] == want

    @pytest.mark.parametrize(
        "range_max, size, seed, fails, error",
        [
            # mstd_delta's range check on 2 max A
            (I64_MAX - 1, 1, 5, lambda a: 2 * a[-1] > I64_MAX, OverflowError),
            # its span check on 2 (max A - min A)
            (MAX_SPAN_BITS, 2, 2, lambda a: 2 * (a[-1] - a[0]) > MAX_SPAN_BITS, ValueError),
        ],
    )
    def test_limits_raise_at_the_first_failing_trial(self, range_max, size, seed, fails, error):
        draws = enumerate(random_draws(range_max, size, seed), 1)
        trial = next(t for t, elems in draws if fails(elems))
        assert trial > 1  # the seed lets at least one draw pass first
        rep = random_search(range_max, size, trial - 1, seed)
        assert sum(rep.spectrum.values()) == trial - 1
        with pytest.raises(error):
            random_search(range_max, size, trial, seed)

    def test_range_check_comes_before_span_check(self):
        first = next(random_draws(I64_MAX - 1, 2, 1))
        assert 2 * first[-1] > I64_MAX and 2 * (first[-1] - first[0]) > MAX_SPAN_BITS
        with pytest.raises(OverflowError):
            random_search(I64_MAX - 1, 2, 1, 1)


def _scored(draws):
    return {d: (tally, least) for d, tally, least in search._score_lanes(draws)}


# 11 elements of [0, 25]; with a twelfth x > 25 the rows share normalized
# columns 1..10, and so the scorer's packed key, and differ in column 11
_PREFIX = [0, 2, 3, 4, 7, 11, 12, 14, 20, 21, 25]


class TestScoreLanes:
    def test_rows_that_differ_past_the_key(self):
        # descending x, each row reversed, so the least row comes last
        draws = [(_PREFIX + [x])[::-1] for x in range(63, 25, -1)]
        want = score_batch(draws)
        assert max(tally for tally, _ in want.values()) > 1
        assert _scored(draws) == want

    def test_rows_with_a_common_factor(self):
        # the least rows, [0, 1, 3] and [0, 1, 2], come only from dilations by 2 and 3
        draws = [[0, 1, 4], [16, 12, 10], [0, 6, 9], [39, 30, 33], [4, 8, 6], [1, 7, 4]]
        want = score_batch(draws)
        assert want == {-1: (4, [0, 1, 3]), 0: (2, [0, 1, 2])}
        assert _scored(draws) == want

    def test_singletons(self):
        draws = [[5], [0], [63]]
        assert _scored(draws) == score_batch(draws) == {0: (3, [0])}

    def test_the_whole_range(self):
        draws = [random.Random(3).sample(range(64), 64)]
        assert _scored(draws) == score_batch(draws)

    @given(
        st.integers(0, 63).flatmap(
            lambda top: st.integers(1, top + 1).flatmap(
                lambda k: st.lists(
                    st.permutations(range(top + 1)).map(lambda p: p[:k]),
                    min_size=1,
                    max_size=30,
                )
            )
        )
    )
    def test_matches_python_sets(self, draws):
        assert _scored(draws) == score_batch(draws)


def _samples(n, k, seed, counts):
    """``rng.sample(range(n), k)`` for sum(counts) calls, and the replay's
    rows for the same seed, drawn ``counts`` rows at a time."""
    rng = random.Random(seed)
    want = [rng.sample(range(n), k) for _ in range(sum(counts))]
    replay = search._PoolReplay(random.Random(seed), n, k)
    return want, [row for c in counts for row in replay.draw(c).tolist()]


_CPYTHON_SAMPLE = random.Random.sample


def _sample_then_skip_a_word(self, population, k):
    """A sampler that draws otherwise than CPython's: one more word per call."""
    result = _CPYTHON_SAMPLE(self, population, k)
    self.getrandbits(32)
    return result


@pytest.fixture
def fresh_probe():
    """``_replays_sample`` probes again inside the test, and after it."""
    search._replays_sample.cache_clear()
    yield
    search._replays_sample.cache_clear()


class TestPoolReplay:
    @pytest.mark.parametrize(
        "n, k",
        [
            (41, 12),  # the benchmark's shape
            (33, 6),  # bounds 33..28: b falls from 6 to 5 bits mid-sample
            (64, 6),  # bounds 64..59: b falls from 7 to 6 bits
            (64, 64),  # the whole pool, down to randbelow(1)
            (7, 7),
            (2, 1),
            (1, 1),
            (21, 5),  # the widest pool of a sample of at most 5
        ],
    )
    @pytest.mark.parametrize("seed", [1, 7, 123456])
    def test_rows_match_rng_sample(self, n, k, seed):
        assert search._replays_sample(n, k)
        want, got = _samples(n, k, seed, [1, 2, 61, 700])
        assert got == want

    @given(
        st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.integers(-(2**70), 2**70),
        st.lists(st.integers(1, 40), min_size=1, max_size=4),
        st.sampled_from([search._CHUNK_BITS, 0]),  # refills of 2^14 words, or of one
    )
    def test_rows_match_rng_sample_on_any_pool_shape(self, shape, seed, counts, chunk_bits):
        n, k = shape
        if search._replays_sample(n, k):
            with mock.patch.object(search, "_CHUNK_BITS", chunk_bits):
                want, got = _samples(n, k, seed, counts)
            assert got == want

    @pytest.mark.parametrize("n, k", [(41, 12), (33, 6), (64, 64), (2, 1)])
    def test_one_word_blocks_extend_the_stream_mid_sample(self, monkeypatch, n, k):
        rng = random.Random(5)
        want = [rng.sample(range(n), k) for _ in range(40)]
        monkeypatch.setattr(search, "_CHUNK_BITS", 0)  # each refill is a single word
        replay = search._PoolReplay(random.Random(5), n, k)
        got = replay.draw(25).tolist() + replay.draw(15).tolist()
        assert got == want

    def test_stream_carries_across_one_row_batches(self, monkeypatch):
        draw = search._PoolReplay.draw
        counts = []

        def spy(self, count):
            counts.append(count)
            return draw(self, count)

        monkeypatch.setattr(search._PoolReplay, "draw", spy)
        # one row per batch and one word per refill, so every sample crosses a refill
        monkeypatch.setattr(search, "_CHUNK_BITS", 0)
        args = (40, 12, 300, 3)
        assert random_search(*args).to_dict() == replay_random_search(*args)
        assert counts == [1] * 300

    def test_set_branch_is_not_replayed(self):
        assert not search._replays_sample(41, 3)  # 41 > setsize 21
        assert not search._replays_sample(22, 5)
        assert search._replays_sample(41, 6)  # setsize 21 + 64

    @pytest.mark.parametrize(
        "args",
        [
            (40, 12, 500, 1),  # the pool branch, replayed unless the probe fails
            (40, 3, 200, 1),  # the set branch, never replayed
        ],
    )
    def test_sampler_that_differs_falls_back(self, monkeypatch, fresh_probe, args):
        range_max, size = args[:2]
        cpython = random_search(*args).to_dict()
        monkeypatch.setattr(random.Random, "sample", _sample_then_skip_a_word)
        search._replays_sample.cache_clear()
        assert not search._replays_sample(range_max + 1, size)
        got = random_search(*args).to_dict()
        assert got == replay_random_search(*args)
        assert got != cpython  # the patched sampler draws other samples

    def test_set_branch_draws_with_rng_sample(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the set branch was replayed")

        monkeypatch.setattr(search, "_PoolReplay", refuse)
        args = (40, 3, 200, 1)
        assert random_search(*args).to_dict() == replay_random_search(*args)
