"""Deterministic simulated shared-memory parallelism.

The paper runs sparseMEM and essaMEM with τ = 1, 4, 8 threads by
partitioning the query among threads. Python's GIL makes real threads
meaningless for this workload, so we use the ideal-parallel model
(DESIGN.md §2): the query positions are split into τ contiguous chunks,
each chunk is *timed sequentially*, and the parallel extraction time is the
**maximum** chunk time (plus the result merge, which is serial and holds
the one :class:`MatchSet` dedup of the chunks' raw triplets). This is
deterministic, repeatable, and preserves the paper's qualitative scaling,
including sparseMEM's anti-scaling (its index sparseness grows with τ).

Chunking is correct because a chunk reports every MEM whose *anchor*
position falls in it; the union over chunks therefore covers all MEMs, and
duplicates (a MEM with anchors in two chunks) are removed in the merge —
the same argument the real tools use.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import InvalidParameterError
from repro.types import MatchSet, concat_triplets


def split_query(n_query: int, tau: int) -> list[np.ndarray]:
    """τ near-equal contiguous chunks of query positions."""
    if tau < 1:
        raise InvalidParameterError(f"tau must be >= 1, got {tau}")
    bounds = np.linspace(0, n_query, tau + 1).astype(np.int64)
    return [
        np.arange(bounds[i], bounds[i + 1], dtype=np.int64) for i in range(tau)
    ]


def parallel_query_time(
    finder, query, min_length: int, tau: int
) -> tuple[MatchSet, float, list[float]]:
    """Run a chunk-capable finder under the ideal τ-thread model.

    Returns ``(merged mems, simulated parallel seconds, per-chunk seconds)``.
    The finder must expose ``_find_positions(query, positions, min_length)``
    (the suffix-array family does; slaMEM is single-threaded in the paper
    and does not).
    """
    from repro.baselines.base import as_codes

    query = as_codes(query)
    chunk_times: list[float] = []
    parts = []
    for positions in split_query(query.size, tau):
        t0 = time.perf_counter()
        part = finder._find_positions(query, positions, min_length)
        chunk_times.append(time.perf_counter() - t0)
        parts.append(part)
    t0 = time.perf_counter()
    merged = MatchSet(concat_triplets(parts))
    merge_time = time.perf_counter() - t0
    return merged, max(chunk_times) + merge_time, chunk_times
