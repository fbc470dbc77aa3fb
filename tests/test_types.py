"""Tests for repro.types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types import (
    TRIPLET_DTYPE,
    MatchSet,
    concat_triplets,
    empty_triplets,
    make_triplets,
    mems_equal,
    sort_mems,
    triplets_from_tuples,
    unique_mems,
)


class TestTriplets:
    def test_make(self):
        t = make_triplets([1, 2], [3, 4], [5, 6])
        assert t.dtype == TRIPLET_DTYPE
        assert t["r"].tolist() == [1, 2]

    def test_make_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_triplets([1], [2, 3], [4])

    def test_empty(self):
        assert empty_triplets().size == 0

    def test_concat(self):
        a = make_triplets([1], [2], [3])
        b = make_triplets([4], [5], [6])
        assert concat_triplets([a, b]).size == 2
        assert concat_triplets([]).size == 0
        assert concat_triplets([empty_triplets(), a]).size == 1

    def test_from_tuples_round_trip(self):
        tuples = [(1, 2, 3), (4, 5, 6)]
        arr = triplets_from_tuples(tuples)
        assert [tuple(int(v) for v in row) for row in arr] == tuples
        assert triplets_from_tuples([]).size == 0


class TestSorting:
    def test_diagonal_sort(self):
        # §III-C1 order: (r - q, then q)
        t = make_triplets([5, 1, 3], [1, 1, 2], [2, 2, 2])  # diags 4, 0, 1
        s = sort_mems(t)
        assert (s["r"] - s["q"]).tolist() == [0, 1, 4]

    def test_tie_on_q(self):
        t = make_triplets([4, 2], [3, 1], [2, 2])  # both diag 1
        s = sort_mems(t)
        assert s["q"].tolist() == [1, 3]

    def test_unique_drops_duplicates(self):
        t = make_triplets([1, 1, 2], [1, 1, 2], [3, 3, 3])
        assert unique_mems(t).size == 2

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 4)),
            max_size=40,
        ).flatmap(lambda rows: st.permutations(rows + rows[: len(rows) // 2]))
    )
    def test_unique_equals_structured_unique_then_diagonal_sort(self, rows):
        """The one canonicalization reproduces the formula it replaced
        (structured ``np.unique``, then the diagonal sort) byte for byte."""
        mems = triplets_from_tuples(rows)
        old = sort_mems(np.unique(mems)) if mems.size else mems.copy()
        assert unique_mems(mems).tobytes() == old.tobytes()

    def test_canonical_input_is_returned_as_a_copy(self):
        canonical = unique_mems(make_triplets([5, 1, 3, 3], [1, 1, 2, 2], [2, 2, 2, 4]))
        again = unique_mems(canonical)
        assert again.tobytes() == canonical.tobytes()
        assert not np.shares_memory(again, canonical)

    def test_mems_equal_order_insensitive(self):
        a = make_triplets([1, 2], [1, 2], [3, 3])
        b = make_triplets([2, 1], [2, 1], [3, 3])
        assert mems_equal(a, b)
        assert not mems_equal(a, a[:1])


class TestMatchSet:
    def make(self):
        return MatchSet(make_triplets([1, 5, 1], [0, 2, 0], [4, 3, 4]))

    def test_dedup_on_construction(self):
        assert len(self.make()) == 2

    def test_iteration_yields_tuples(self):
        items = list(self.make())
        assert all(isinstance(x, tuple) and len(x) == 3 for x in items)

    def test_indexing(self):
        ms = self.make()
        assert isinstance(ms[0], tuple)

    def test_equality(self):
        assert self.make() == self.make()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.make())

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            MatchSet(np.zeros(3, dtype=np.int64))

    def test_lengths_and_total(self):
        ms = self.make()
        assert sorted(ms.lengths().tolist()) == [3, 4]
        assert ms.total_matched_bases() == 7

    def test_filter_min_length(self):
        assert len(self.make().filter_min_length(4)) == 1

    def test_stats_dict(self):
        ms = MatchSet(empty_triplets(), stats={"a": 1})
        assert ms.stats["a"] == 1

    def test_repr(self):
        assert "n=2" in repr(self.make())

    def test_as_tuples(self):
        assert set(self.make().as_tuples()) == {(1, 0, 4), (5, 2, 3)}
