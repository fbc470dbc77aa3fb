"""Shared result types: match triplets and MEM sets.

A maximal exact match (MEM) is reported exactly as in the paper, Table I: a
triplet ``(r, q, length)`` meaning
``R[r : r + length] == Q[q : q + length]`` with mismatches (or sequence
boundaries) immediately to the left and right.

Triplets are stored in NumPy structured arrays so that the whole pipeline —
generation, combining, sorting by diagonal — stays vectorized.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

#: Structured dtype of a match triplet: reference start, query start, length.
TRIPLET_DTYPE = np.dtype([("r", np.int64), ("q", np.int64), ("length", np.int64)])

#: Alias — final MEMs use the same layout as intermediate triplets.
MEM_DTYPE = TRIPLET_DTYPE


def make_triplets(r, q, length) -> np.ndarray:
    """Build a structured triplet array from three equal-length vectors."""
    r = np.asarray(r, dtype=np.int64)
    q = np.asarray(q, dtype=np.int64)
    length = np.asarray(length, dtype=np.int64)
    if not (r.shape == q.shape == length.shape):
        raise ValueError(
            f"mismatched triplet component shapes: {r.shape}, {q.shape}, {length.shape}"
        )
    out = np.empty(r.shape, dtype=TRIPLET_DTYPE)
    out["r"] = r
    out["q"] = q
    out["length"] = length
    return out


def empty_triplets() -> np.ndarray:
    """An empty triplet array (the identity for :func:`concat_triplets`)."""
    return np.empty(0, dtype=TRIPLET_DTYPE)


def concat_triplets(parts: Iterable[np.ndarray]) -> np.ndarray:
    """Concatenate triplet arrays, tolerating an empty iterable."""
    parts = [p for p in parts if p.size]
    if not parts:
        return empty_triplets()
    return np.concatenate(parts)


def sort_mems(mems: np.ndarray) -> np.ndarray:
    """Sort triplets by ``(r - q, q)`` — the paper's §III-C1 diagonal order.

    Overlapping triplets on the same diagonal become adjacent, which is what
    makes the scan-combine at tile and host level correct.
    """
    if mems.size == 0:
        return mems.copy()
    diag = mems["r"] - mems["q"]
    order = np.lexsort((mems["q"], diag))
    return mems[order]


def unique_mems(mems: np.ndarray) -> np.ndarray:
    """The canonical form of a MEM set: duplicates dropped, sorted by
    ``(r - q, q, length)`` (the §III-C1 diagonal order).

    This is the one deduplication of a MEM set; :class:`MatchSet` applies it
    to whatever the producing path hands over. The result never aliases
    the input.
    """
    diag = mems["r"] - mems["q"]
    q = mems["q"]
    length = mems["length"]
    order = np.lexsort((length, q, diag))
    diag, q, length = diag[order], q[order], length[order]
    keep = np.ones(order.size, dtype=bool)
    # (diag, q) fixes r, so these three keys identify a triplet.
    keep[1:] = (diag[1:] != diag[:-1]) | (q[1:] != q[:-1]) | (length[1:] != length[:-1])
    return mems[order[keep]]


def mems_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Set equality of two MEM collections (order/duplicate insensitive)."""
    return np.array_equal(unique_mems(a), unique_mems(b))


class MatchSet:
    """A queryable collection of MEM triplets with bookkeeping statistics.

    This is the object returned by the public matchers. It behaves like a
    sequence of ``(r, q, length)`` tuples and exposes the underlying
    structured array as :attr:`array` for vectorized consumers.

    Construction is the single point where a MEM set is deduplicated and
    sorted (:func:`unique_mems`). Every extraction path — session, matcher,
    multi-device, simulated backend, process-tier rebuild, variants and the
    CPU baselines — hands its raw triplets here; the stages upstream may
    emit the same MEM more than once (several seeds inside one MEM, several
    chains re-extending to one crossing MEM).
    """

    def __init__(self, triplets: np.ndarray, *, stats=None):
        if triplets.dtype != TRIPLET_DTYPE:
            raise TypeError(f"expected TRIPLET_DTYPE array, got {triplets.dtype}")
        self._array = unique_mems(triplets)
        #: Pipeline statistics: a typed
        #: :class:`repro.core.pipeline.PipelineStats` (kept by reference, so
        #: the producing matcher and the result expose the same object) or a
        #: plain dict (copied) for ad-hoc annotations. Both support
        #: ``stats[key]`` lookup.
        if stats is None:
            self.stats = {}
        elif isinstance(stats, dict):
            self.stats = dict(stats)
        else:
            self.stats = stats

    @property
    def array(self) -> np.ndarray:
        """The deduplicated, diagonal-sorted structured triplet array."""
        return self._array

    def __len__(self) -> int:
        return int(self._array.size)

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for row in self._array:
            yield (int(row["r"]), int(row["q"]), int(row["length"]))

    def __getitem__(self, item):
        rows = self._array[item]
        if np.isscalar(item) or isinstance(item, (int, np.integer)):
            return (int(rows["r"]), int(rows["q"]), int(rows["length"]))
        return rows

    def __eq__(self, other) -> bool:
        if isinstance(other, MatchSet):
            return np.array_equal(self._array, other._array)
        return NotImplemented

    def __hash__(self):  # pragma: no cover - MatchSets are not hashable
        raise TypeError("MatchSet is unhashable")

    def __repr__(self) -> str:
        return f"MatchSet(n={len(self)})"

    def lengths(self) -> np.ndarray:
        """Vector of MEM lengths."""
        return self._array["length"].copy()

    def total_matched_bases(self) -> int:
        """Sum of MEM lengths (a coarse similarity signal)."""
        return int(self._array["length"].sum())

    def filter_min_length(self, min_length: int) -> "MatchSet":
        """A new :class:`MatchSet` keeping MEMs of at least ``min_length``."""
        keep = self._array["length"] >= int(min_length)
        return MatchSet(self._array[keep], stats=self.stats)

    def as_tuples(self) -> list[tuple[int, int, int]]:
        """Materialize as a plain list of python-int tuples (test helper)."""
        return list(self)


def triplets_from_tuples(tuples: Sequence[tuple[int, int, int]]) -> np.ndarray:
    """Inverse of :meth:`MatchSet.as_tuples`."""
    if not tuples:
        return empty_triplets()
    arr = np.array(tuples, dtype=np.int64).reshape(-1, 3)
    return make_triplets(arr[:, 0], arr[:, 1], arr[:, 2])
