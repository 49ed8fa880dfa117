import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mstdkit import IntSet, exhaustive_spectrum, mstd_delta, normalize, random_search
from mstdkit import search
from mstdkit.search import MAX_RANGE, _key_mask, _lex_key
from mstdkit.setops import I64_MAX, MAX_SPAN_BITS
from oracles import random_draws, replay_random_search


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
    assert _key_mask(ka, range_max) == a
    assert _key_mask(kb, range_max) == b


def test_low_tables_read_only():
    tables = search._low_tables(4)
    # rows by size, ascending within each size
    assert list(tables.low) == [1, 3, 5, 9, 7, 11, 13, 15]
    assert tables.starts == (0, 0, 1, 4, 7, 8)
    assert list(tables.top) == [0, 1, 2, 3, 2, 3, 3, 3]
    assert tables.top.dtype == np.uint8
    for name, arr in vars(tables).items():
        if name != "starts":
            with pytest.raises(ValueError):
                arr[0] = 0


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
        ],
    )
    def test_matches_python_set_replay(self, args):
        assert random_search(*args).to_dict() == replay_random_search(*args)

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
