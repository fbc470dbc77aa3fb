"""Tests for repro.core.matcher (the public GpuMem driver)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.matcher import GpuMem, find_mems
from repro.core.params import GpuMemParams
from repro.core.reference import brute_force_mems
from repro.sequence.packed import PackedSequence
from repro.types import mems_equal

from tests.conftest import dna_pair


class TestPublicApi:
    def test_kwargs_construction(self):
        m = GpuMem(min_length=40, seed_length=8)
        assert m.params.min_length == 40

    def test_params_plus_overrides(self):
        p = GpuMemParams(min_length=40, seed_length=8)
        m = GpuMem(p, load_balancing=False)
        assert m.params.load_balancing is False
        assert p.load_balancing is True  # original untouched

    def test_accepts_strings(self):
        result = find_mems("ACGTACGTAC", "ACGTACGTAC", min_length=4, seed_length=3)
        assert (0, 0, 10) in set(result.as_tuples())

    def test_accepts_packed_sequences(self):
        R = PackedSequence("ACGTACGTACGT")
        result = find_mems(R, R, min_length=4, seed_length=3)
        assert (0, 0, 12) in set(result.as_tuples())

    def test_find_mems_convenience_matches_class(self):
        rng = np.random.default_rng(0)
        R = rng.integers(0, 3, 200).astype(np.uint8)
        Q = rng.integers(0, 3, 200).astype(np.uint8)
        a = find_mems(R, Q, min_length=5, seed_length=3)
        b = GpuMem(min_length=5, seed_length=3).find_mems(R, Q)
        assert a == b

    def test_stats_after_run(self):
        rng = np.random.default_rng(1)
        R = rng.integers(0, 4, 500).astype(np.uint8)
        Q = rng.integers(0, 4, 500).astype(np.uint8)
        m = GpuMem(min_length=8, seed_length=4)
        result = m.find_mems(R, Q)
        for key in ("index_time", "match_time", "host_merge_time", "total_time",
                    "n_tiles", "n_candidates", "max_index_bytes"):
            assert m.stats[key] == getattr(m.stats, key)
        assert m.stats == result.stats

    def test_index_only_positive(self):
        rng = np.random.default_rng(2)
        R = rng.integers(0, 4, 2000).astype(np.uint8)
        assert GpuMem(min_length=20, seed_length=8).index_only(R) > 0


class TestCorrectnessAcrossTilings:
    @settings(max_examples=30, deadline=None)
    @given(dna_pair(max_size=150), st.integers(1, 3), st.sampled_from([4, 8]))
    def test_tiling_invariance(self, pair, blocks, tau):
        """The MEM set must be independent of tile/block geometry."""
        R, Q = pair
        L, ls = 5, 3
        expect = brute_force_mems(R, Q, L)
        p = GpuMemParams(
            min_length=L, seed_length=ls,
            threads_per_block=tau, blocks_per_tile=blocks,
        )
        got = GpuMem(p).find_mems(R, Q)
        assert mems_equal(got.array, expect)

    def test_degenerate_all_same_letter(self):
        R = np.zeros(100, dtype=np.uint8)
        Q = np.zeros(80, dtype=np.uint8)
        p = GpuMemParams(min_length=10, seed_length=4,
                         threads_per_block=4, blocks_per_tile=2)
        got = GpuMem(p).find_mems(R, Q)
        assert mems_equal(got.array, brute_force_mems(R, Q, 10))

    def test_alternating_adversarial(self):
        R = np.tile([0, 1], 60).astype(np.uint8)
        Q = np.tile([0, 1], 50).astype(np.uint8)
        p = GpuMemParams(min_length=8, seed_length=3,
                         threads_per_block=4, blocks_per_tile=2)
        got = GpuMem(p).find_mems(R, Q)
        assert mems_equal(got.array, brute_force_mems(R, Q, 8))

    def test_query_shorter_than_seed(self):
        R = np.zeros(50, dtype=np.uint8)
        Q = np.zeros(3, dtype=np.uint8)
        got = GpuMem(min_length=5, seed_length=5).find_mems(R, Q)
        assert len(got) == 0

    def test_empty_inputs(self):
        R = np.zeros(10, dtype=np.uint8)
        got = GpuMem(min_length=3, seed_length=2).find_mems(R, np.empty(0, np.uint8))
        assert len(got) == 0
        got = GpuMem(min_length=3, seed_length=2).find_mems(np.empty(0, np.uint8), R)
        assert len(got) == 0

    def test_sparsification_invariance(self):
        """Eq. (1): any legal Δs yields the identical MEM set."""
        rng = np.random.default_rng(3)
        R = rng.integers(0, 2, 300).astype(np.uint8)
        Q = rng.integers(0, 2, 300).astype(np.uint8)
        L, ls = 10, 4
        expect = brute_force_mems(R, Q, L)
        for step in (1, 2, 3, 5, 7):
            p = GpuMemParams(min_length=L, seed_length=ls, step=step)
            got = GpuMem(p).find_mems(R, Q)
            assert mems_equal(got.array, expect), step


class TestSimulatedBackendDispatch:
    def test_backend_simulated(self):
        rng = np.random.default_rng(4)
        R = rng.integers(0, 3, 120).astype(np.uint8)
        Q = rng.integers(0, 3, 120).astype(np.uint8)
        m = GpuMem(min_length=5, seed_length=3, backend="simulated",
                   threads_per_block=4, blocks_per_tile=2)
        got = m.find_mems(R, Q)
        assert mems_equal(got.array, brute_force_mems(R, Q, 5))
        assert m.stats["backend"] == "simulated"
