"""sparseMEM baseline (Khan et al. 2009).

A sparse suffix array indexes only every ``K``-th reference suffix, cutting
the index by ``K×`` at the price of extra extraction work — the trade-off
§IV-B of the GPUMEM paper highlights (sparseMEM gets *slower* at extraction
as τ grows because its index shrinks). We couple ``K = τ`` exactly as the
paper describes.

Extraction: every MEM of length ≥ L has a *sampled anchor* — the first
indexed reference position inside it, at offset ``j <= K − 1`` — whose
agreement with the aligned query suffix is ≥ ``L − K + 1``. So candidates
are collected at the lowered threshold, extended left to their true starts
(which also establishes left-maximality), deduplicated and length-filtered.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import MEMFinder
from repro.errors import InvalidParameterError
from repro.index.compare import common_suffix_len
from repro.index.sparse_sa import SparseSuffixArray
from repro.types import empty_triplets, make_triplets


class SparseMemFinder(MEMFinder):
    """Sparse-suffix-array MEM finder with sparseness ``K``."""

    name = "sparseMEM"

    def __init__(self, sparseness: int = 1):
        super().__init__()
        if sparseness < 1:
            raise InvalidParameterError(f"sparseness must be >= 1, got {sparseness}")
        self.sparseness = int(sparseness)
        self._searcher: SparseSuffixArray | None = None

    def _build(self, reference: np.ndarray) -> None:
        self._searcher = self._make_searcher(reference)

    def _make_searcher(self, reference: np.ndarray) -> SparseSuffixArray:
        return SparseSuffixArray(reference, sparseness=self.sparseness)

    def index_bytes(self) -> int:
        return self._searcher.nbytes if self._searcher else 0

    def _find(self, query: np.ndarray, min_length: int) -> np.ndarray:
        positions = np.arange(query.size, dtype=np.int64)
        return self._find_positions(query, positions, min_length)

    def _find_positions(
        self, query: np.ndarray, q_positions: np.ndarray, min_length: int
    ) -> np.ndarray:
        searcher = self._searcher
        if min_length < self.sparseness:
            raise InvalidParameterError(
                f"{self.name}: min_length ({min_length}) must be >= sparseness "
                f"({self.sparseness}) or MEMs may be missed"
            )
        reference = searcher.reference
        threshold = searcher.candidate_threshold(min_length)
        r, q, lam = searcher.enumerate_candidates(query, q_positions, threshold)
        if r.size == 0:
            return empty_triplets()
        # Recover true (left-maximal) starts by full left extension.
        le = common_suffix_len(reference, query, r, q)
        mems = make_triplets(r - le, q - le, lam + le)
        return mems[mems["length"] >= min_length]
