"""Tests for MUM / rare / both-strand variants (paper §V future work)."""

import numpy as np
import pytest
from hypothesis import given, settings

import repro
from repro.core.variants import (
    StrandedMems,
    find_mems_both_strands,
    find_mums,
    find_rare_mems,
    occurrence_counts,
)
from repro.errors import InvalidParameterError
from repro.sequence.alphabet import reverse_complement

from tests.conftest import dna_pair


def naive_substring_count(hay, needle):
    n, m = len(hay), len(needle)
    return sum(1 for i in range(n - m + 1) if np.array_equal(hay[i : i + m], needle))


def naive_mums(R, Q, L):
    out = set()
    for r, q, length in map(tuple, repro.brute_force_mems(R, Q, L).tolist()):
        sub = R[r : r + length]
        if naive_substring_count(R, sub) == 1 and naive_substring_count(Q, sub) == 1:
            out.add((r, q, length))
    return out


class TestOccurrenceCounts:
    @settings(max_examples=20, deadline=None)
    @given(dna_pair(max_size=60))
    def test_counts_match_naive(self, pair):
        R, Q = pair
        mems = repro.find_mems(R, Q, min_length=3, seed_length=2)
        if len(mems) == 0:
            return
        in_ref, in_qry = occurrence_counts(mems, R, Q)
        for i, (r, _q, length) in enumerate(mems):
            sub = R[r : r + length]
            assert in_ref[i] == naive_substring_count(R, sub)
            assert in_qry[i] == naive_substring_count(Q, sub)


class TestFindMums:
    def test_unique_match_kept_repeat_dropped(self):
        # R contains "0123" once and "332" twice; Q shares both
        R = np.array([0, 1, 2, 3, 3, 3, 2, 0, 3, 3, 2], dtype=np.uint8)
        Q = np.array([0, 1, 2, 3, 3, 2, 1], dtype=np.uint8)
        mums = find_mums(R, Q, min_length=3, seed_length=2)
        for r, _q, length in mums:
            sub = R[r : r + length]
            assert naive_substring_count(R, sub) == 1
            assert naive_substring_count(Q, sub) == 1

    @settings(max_examples=20, deadline=None)
    @given(dna_pair(max_size=60))
    def test_matches_naive_mums(self, pair):
        R, Q = pair
        got = set(find_mums(R, Q, min_length=4, seed_length=3).as_tuples())
        assert got == naive_mums(R, Q, 4)

    def test_mums_subset_of_mems(self, homologous_pair):
        R, Q = homologous_pair
        R, Q = R[:4000], Q[:4000]
        mems = set(repro.find_mems(R, Q, min_length=20, seed_length=8).as_tuples())
        mums = find_mums(R, Q, min_length=20, seed_length=8)
        assert set(mums.as_tuples()) <= mems
        assert mums.stats["variant"] == "mum"
        assert mums.stats["n_mems_prefilter"] == len(mems)

    def test_paper_motivation_repeats_kill_mums(self):
        """§I: when repeats abound, MEMs >> MUMs."""
        from repro.sequence.synthetic import plant_repeats, plant_homology

        R = plant_repeats(
            repro.random_dna(8000, seed=1), seed=2,
            n_families=2, family_length=(60, 100),
            copies_per_family=(20, 40), copy_divergence=0.0,
        )
        Q = plant_homology(R, 6000, seed=3, coverage=0.8, divergence=0.0)
        mems = repro.find_mems(R, Q, min_length=30, seed_length=8)
        mums = find_mums(R, Q, min_length=30, seed_length=8)
        assert len(mums) < len(mems)


class TestFindRare:
    def test_k_one_equals_mums(self):
        rng = np.random.default_rng(0)
        R = rng.integers(0, 3, 200).astype(np.uint8)
        Q = rng.integers(0, 3, 200).astype(np.uint8)
        a = find_rare_mems(R, Q, 5, max_ref_occurrences=1, seed_length=3)
        b = find_mums(R, Q, 5, seed_length=3)
        assert a == b

    def test_monotone_in_k(self):
        rng = np.random.default_rng(1)
        R = np.tile(rng.integers(0, 4, 50).astype(np.uint8), 4)
        Q = R.copy()
        sets = []
        for k in (1, 2, 4, 100):
            s = set(find_rare_mems(R, Q, 8, max_ref_occurrences=k,
                                   seed_length=4).as_tuples())
            sets.append(s)
        for small, big in zip(sets, sets[1:], strict=False):
            assert small <= big

    def test_large_k_equals_all_mems(self):
        rng = np.random.default_rng(2)
        R = rng.integers(0, 3, 150).astype(np.uint8)
        Q = rng.integers(0, 3, 150).astype(np.uint8)
        rare = find_rare_mems(R, Q, 5, max_ref_occurrences=10**6, seed_length=3)
        mems = repro.find_mems(R, Q, min_length=5, seed_length=3)
        assert rare == mems

    def test_asymmetric_bounds(self):
        R = np.tile(np.array([0, 1, 2, 3], dtype=np.uint8), 10)
        Q = np.array([0, 1, 2, 3], dtype=np.uint8)
        # substring occurs 10x in R, 1x in Q
        loose_ref = find_rare_mems(R, Q, 4, max_ref_occurrences=20,
                                   max_query_occurrences=1, seed_length=3)
        tight_ref = find_rare_mems(R, Q, 4, max_ref_occurrences=1,
                                   max_query_occurrences=20, seed_length=3)
        assert len(loose_ref) > 0
        assert len(tight_ref) == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            find_rare_mems("ACGT", "ACGT", 2, max_ref_occurrences=0)
        with pytest.raises(InvalidParameterError):
            find_rare_mems("ACGT", "ACGT", 2, max_query_occurrences=0)

    def test_empty_result_passthrough(self):
        R = np.zeros(30, dtype=np.uint8)
        Q = np.full(30, 3, dtype=np.uint8)
        assert len(find_rare_mems(R, Q, 5, seed_length=3)) == 0


class TestBothStrands:
    def test_reverse_complement_identity(self):
        codes = repro.encode("ACGTTG")
        rc = reverse_complement(codes)
        assert repro.decode(rc) == "CAACGT"
        assert np.array_equal(reverse_complement(rc), codes)

    def test_reverse_strand_match_found(self):
        R = repro.encode("AAACGTACGTTTACCCGGG")
        insert = reverse_complement(repro.encode("ACGTACGTTT")[0:10])
        Q = np.concatenate([repro.encode("TTT"), insert, repro.encode("AAA")])
        res = find_mems_both_strands(R, Q, min_length=10, seed_length=4)
        assert isinstance(res, StrandedMems)
        assert len(res.reverse) >= 1

    def test_forward_coordinate_mapping(self):
        R = repro.encode("ACGTACGTAC")
        Q = reverse_complement(R)  # pure reverse-complement query
        res = find_mems_both_strands(R, Q, min_length=10, seed_length=4)
        mapped = res.reverse_in_forward_coords().tolist()
        assert (0, 0, 10) in mapped
        # and the forward strand has only spurious/short matches
        assert all(l < 10 for _, _, l in res.forward)

    def test_total_counts(self):
        rng = np.random.default_rng(5)
        R = rng.integers(0, 4, 300).astype(np.uint8)
        res = find_mems_both_strands(R, R.copy(), min_length=12, seed_length=6)
        assert res.total() == len(res.forward) + len(res.reverse)
        assert "+%d" % len(res.forward) in repr(res)

    @settings(max_examples=15, deadline=None)
    @given(dna_pair(max_size=60))
    def test_reverse_equals_forward_on_rc_query(self, pair):
        R, Q = pair
        direct = set(
            repro.find_mems(R, reverse_complement(Q), min_length=4,
                            seed_length=3).as_tuples()
        )
        res = find_mems_both_strands(R, Q, min_length=4, seed_length=3)
        assert set(res.reverse.as_tuples()) == direct
