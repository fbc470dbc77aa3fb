"""MUMmer-class baseline: full suffix array + LCP (Kurtz et al. 2004).

MUMmer 3's ``maxmatch`` mode streams the query against a full suffix
structure of the reference. We implement the suffix-array formulation: for
every query position, locate the insertion point of ``Q[q:]`` in the full
suffix array, then walk outward collecting every reference suffix whose
agreement ``λ`` (a running minimum of LCP values) stays ≥ L — each such
``(r, q, λ)`` is right-maximal by construction, and keeping only the
left-maximal ones (``R[r−1] != Q[q−1]`` or a sequence start) yields each
MEM exactly once.

(The original uses a suffix *tree*; the suffix-array walk enumerates the
identical set with the same asymptotics and a far smaller footprint — the
very observation that motivated the enhanced-suffix-array line of work the
paper cites [2].)
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import MEMFinder
from repro.index.matching import SuffixArraySearcher
from repro.types import empty_triplets, make_triplets


class MummerFinder(MEMFinder):
    """Full-suffix-array MEM finder (sparseness 1)."""

    name = "MUMmer"

    def __init__(self):
        super().__init__()
        self._searcher: SuffixArraySearcher | None = None

    def _build(self, reference: np.ndarray) -> None:
        self._searcher = SuffixArraySearcher(reference, sparseness=1)

    def index_bytes(self) -> int:
        return self._searcher.nbytes if self._searcher else 0

    def _find(self, query: np.ndarray, min_length: int) -> np.ndarray:
        positions = np.arange(query.size, dtype=np.int64)
        return self._find_positions(query, positions, min_length)

    def _find_positions(
        self, query: np.ndarray, q_positions: np.ndarray, min_length: int
    ) -> np.ndarray:
        """MEMs whose query start lies in ``q_positions`` (thread-chunk API)."""
        searcher = self._searcher
        reference = searcher.reference
        r, q, lam = searcher.enumerate_candidates(query, q_positions, min_length)
        if r.size == 0:
            return empty_triplets()
        # Left-maximality: previous characters differ, or either sequence
        # starts here. λ is already the exact agreement (right-maximal).
        at_edge = (r == 0) | (q == 0)
        safe_r = np.maximum(r - 1, 0)
        safe_q = np.maximum(q - 1, 0)
        keep = at_edge | (reference[safe_r] != query[safe_q])
        return make_triplets(r[keep], q[keep], lam[keep])
